package share

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/topology"
)

// The tests here drive every stack shape through the one surface they
// share, gateway.Backend, to pin what must not differ between them.

// stacks builds a bare gateway, a bare router, share over a gateway and
// share over a router, each with the given subscriber buffer bound.
func stacks(t *testing.T, buffer int) map[string]gateway.Backend {
	return stacksWith(t, buffer, 0, 0)
}

// stacksWith also sets the client-facing tier's admission limits (zero: the
// defaults). The tiers underneath keep their defaults.
func stacksWith(t *testing.T, buffer, maxSessions, quota int) map[string]gateway.Backend {
	t.Helper()
	newRouter := func(maxSessions, quota int) *federation.Router {
		rt, err := federation.New(federation.Config{Shards: 2, Side: 3, Seed: 1, Buffer: buffer, MaxSessions: maxSessions, SessionQuota: quota})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	overGateway, _ := newTestCoord(t, gateway.Config{}, Config{Buffer: buffer, MaxSessions: maxSessions, SessionQuota: quota})
	overRouter, err := New(Config{Upstream: OverRouter(newRouter(0, 0)), Sensors: 2 * (3*3 - 1), Cell: testCell,
		Buffer: buffer, MaxSessions: maxSessions, SessionQuota: quota})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = overRouter.Close() })
	return map[string]gateway.Backend{
		"gateway":            newTestGateway(t, gateway.Config{Buffer: buffer, MaxSessions: maxSessions, SessionQuota: quota}),
		"router":             newRouter(maxSessions, quota),
		"share over gateway": overGateway,
		"share over router":  overRouter,
	}
}

// pumped runs a blocking session call while pumping commits.
func pumped[T any](t *testing.T, b gateway.Backend, call func() (T, error)) (T, error) {
	t.Helper()
	type res struct {
		v   T
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, err := call()
		done <- res{v, err}
	}()
	for {
		select {
		case r := <-done:
			return r.v, r.err
		default:
			if _, err := b.Advance(0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// subscribeVia runs the blocking subscribe while pumping commits.
func subscribeVia(t *testing.T, b gateway.Backend, sess *gateway.Session, text string) (*gateway.Subscription, error) {
	t.Helper()
	return pumped(t, b, func() (*gateway.Subscription, error) {
		return sess.Subscribe(gateway.SubscribeRequest{Query: query.MustParse(text)})
	})
}

// TestEmptyRegionRejectedByEveryComposedTier: a region that misses the
// deployment selects no sensor. The coordinator used to plan it into zero
// fragments — acking the subscribe, holding a quota slot and never
// delivering or failing — while the router rejected it; the shared
// partition step now rejects it in both, with one error.
func TestEmptyRegionRejectedByEveryComposedTier(t *testing.T) {
	for name, b := range stacks(t, 0) {
		if name == "gateway" {
			continue // a bare gateway answers it, with empty aggregates
		}
		sess, err := b.Register("alice")
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{
			"SELECT SUM(light) WHERE nodeid >= 100 AND nodeid <= 120 EPOCH DURATION 2048ms",
			"SELECT SUM(light) WHERE nodeid >= 0.2 AND nodeid <= 0.8 EPOCH DURATION 2048ms",
			// Beyond int range: the clip must happen before any conversion.
			"SELECT SUM(light) WHERE nodeid >= 1e19 EPOCH DURATION 2048ms",
			"SELECT SUM(light) WHERE nodeid >= 1e300 EPOCH DURATION 2048ms",
		} {
			sub, err := subscribeVia(t, b, sess, text)
			if err == nil {
				t.Errorf("%s: %q was acked as subscription %d; it can never be answered", name, text, sub.ID())
				continue
			}
			if want := "selects no sensor"; !strings.Contains(err.Error(), want) {
				t.Errorf("%s: %q rejected with %q, want the shared %q error", name, text, err, want)
			}
		}
		st, _, err := b.ServeStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveSubscriptions != 0 || st.Subscribes != 0 {
			t.Errorf("%s: rejected subscribes left %d live of %d counted", name, st.ActiveSubscriptions, st.Subscribes)
		}
	}
}

// composedTier is one composing tier over the gateways it subscribes on, with
// the fault the upstream can suffer: a crash and a WAL recovery.
type composedTier struct {
	b       gateway.Backend
	held    func() int              // upstream streams the tier holds
	ups     func() []*gateway.Stats // the upstream gateways' counters, now
	crash   func() error
	recover func() error
}

// composedTiers builds a router over two WAL-backed shards and a coordinator
// over one WAL-backed gateway.
func composedTiers(t *testing.T) map[string]composedTier {
	t.Helper()
	rt, err := federation.New(federation.Config{Shards: 2, Side: 3, Seed: 1, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	topo, err := topology.PaperGrid(testSide)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := gateway.Config{
		Sim:     network.Config{Topo: topo, Scheme: network.TTMQO, Seed: 1},
		WALPath: filepath.Join(t.TempDir(), "share.wal"),
	}
	gw := newTestGateway(t, gcfg)
	c, err := New(Config{Upstream: OverGateway(gw), Sensors: testSensors, Cell: testCell})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	stats := func(gws ...func() (gateway.Stats, error)) []*gateway.Stats {
		var out []*gateway.Stats
		for _, get := range gws {
			st, err := get()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, &st)
		}
		return out
	}
	return map[string]composedTier{
		"router": {
			b:    rt,
			held: func() int { return rt.FedStats().UpstreamSubs },
			ups: func() []*gateway.Stats {
				return stats(func() (gateway.Stats, error) { return rt.ShardStats(0) },
					func() (gateway.Stats, error) { return rt.ShardStats(1) })
			},
			crash:   func() error { return rt.CrashShard(0) },
			recover: func() error { return rt.RecoverShard(0) },
		},
		"share": {
			b:     c,
			held:  func() int { return c.ShareStats().FragmentsActive },
			ups:   func() []*gateway.Stats { return stats(func() (gateway.Stats, error) { return gw.Stats(), nil }) },
			crash: func() error { return gw.Crash() },
			recover: func() error {
				if gw, err = gateway.Recover(gcfg); err != nil {
					return err
				}
				t.Cleanup(func() { _ = gw.Close() })
				return c.Reattach(OverGateway(gw))
			},
		},
	}
}

// TestComposedTiersReleaseUnheldUpstreams: a composing tier holds an upstream
// stream exactly as long as some tree needs it. Two schedules end with no tree
// left, and after a few rounds every upstream gateway must be serving nothing:
// a subscribe and the session's close in one commit (the router used to keep
// the streams its tickets resolved to after the tree was gone), and a tree
// torn down while the upstream is crashed, then recovery and re-attach (the
// coordinator used to resume nothing but leave the recovered gateway serving
// every fragment it had logged). A fragment's cancellation is counted once, at
// teardown.
func TestComposedTiersReleaseUnheldUpstreams(t *testing.T) {
	const text = "SELECT SUM(light) WHERE nodeid >= 3 AND nodeid <= 13 EPOCH DURATION 2048ms"
	for _, schedule := range []string{"close in the subscribing commit", "teardown while crashed"} {
		for name, ct := range composedTiers(t) {
			advance := func(n int) {
				for ; n > 0; n-- {
					_, _ = ct.b.Advance(testQuantum) // the upstream may be down
				}
			}
			sess, err := ct.b.Register("alice")
			if err != nil {
				t.Fatal(err)
			}
			if schedule == "teardown while crashed" {
				if _, err := subscribeVia(t, ct.b, sess, text); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				advance(3)
				if ct.held() == 0 {
					t.Fatalf("%s: no upstream stream held for a live tree", name)
				}
				if err := ct.crash(); err != nil {
					t.Fatal(err)
				}
				advance(1)
				if err := sess.CloseAsync(); err != nil {
					t.Fatal(err)
				}
				advance(1)
				if err := ct.recover(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			} else {
				tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)})
				if err != nil {
					t.Fatal(err)
				}
				if err := sess.CloseAsync(); err != nil {
					t.Fatal(err)
				}
				advance(1)
				_, _ = tk.Wait()
			}
			advance(4)
			if n := ct.held(); n != 0 {
				t.Errorf("%s, %s: the tier holds %d upstream streams for no tree", schedule, name, n)
			}
			for i, st := range ct.ups() {
				if st.ActiveSubscriptions != 0 || st.SharedQueries != 0 {
					t.Errorf("%s, %s: upstream gateway %d serves %d subscriptions on %d queries for no tree",
						schedule, name, i, st.ActiveSubscriptions, st.SharedQueries)
				}
			}
			if c, ok := ct.b.(*Coordinator); ok {
				if st := c.ShareStats(); st.FragmentsCancelled != st.FragmentsCreated {
					t.Errorf("%s: %d fragments created, %d cancelled", schedule, st.FragmentsCreated, st.FragmentsCancelled)
				}
			}
		}
	}
}

// TestSessionLifecycleCountersAgreeAcrossTiers: a client Detach → Attach →
// Resume cycle counts the same on every stack shape. The router used to
// report none of the four and the coordinator no detaches or attaches, so
// the ttmqo_gateway_* families under-reported on -shards / -share.
func TestSessionLifecycleCountersAgreeAcrossTiers(t *testing.T) {
	const buffer = 4
	for name, b := range stacks(t, buffer) {
		sess, err := b.Register("carol")
		if err != nil {
			t.Fatal(err)
		}
		sub, err := subscribeVia(t, b, sess, "SELECT MAX(light) EPOCH DURATION 2048ms")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// run advances n quanta, reading as a live client would, and
		// returns the last sequence number seen.
		last := uint64(0)
		run := func(n int, read bool) {
			for i := 0; i < n; i++ {
				if _, err := b.Advance(testQuantum); err != nil {
					t.Fatal(err)
				}
				if !read {
					continue
				}
				if batch, _ := takeSub(sub); len(batch) > 0 {
					last = batch[len(batch)-1].Seq
				}
			}
		}
		cycle := func(away int) {
			t.Helper()
			if err := sess.Detach(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run(away, false)
			var infos []gateway.ResumeInfo
			if sess, infos, err = b.Attach("carol", sess.Token()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(infos) != 1 || infos[0].ID != sub.ID() {
				t.Fatalf("%s: attach reported %+v", name, infos)
			}
			if sub, err = sess.Resume(sub.ID(), last); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		run(3, true)
		if last == 0 {
			t.Fatalf("%s: nothing delivered in 3 quanta", name)
		}
		cycle(2) // the parked tail fits the ring: no gap
		run(2, true)
		cycle(3 * buffer) // the ring sheds what the client still needs: a gap
		run(1, true)

		st, _, err := b.ServeStats()
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("detaches=%d attaches=%d resumes=%d gaps=%d", st.Detaches, st.Attaches, st.Resumes, st.ResumeGaps)
		if want := "detaches=2 attaches=2 resumes=2 gaps=1"; got != want {
			t.Errorf("%s: %s, want %s", name, got, want)
		}
	}
}

// TestResumeBeyondDeliveredRejectedOverTheWire: a client that sends resume
// with an `after` beyond the stream's last sequence gets the bare gateway's
// refusal on every stack shape. The composed tiers used to ack it, replay
// nothing and discard the parked ring without counting a gap; now the same
// request draws the same error text, and the tail is still there for the
// honest resume that follows.
func TestResumeBeyondDeliveredRejectedOverTheWire(t *testing.T) {
	for name, b := range stacks(t, 8) {
		// The pacer never fires: the test advances the backend itself, so
		// nothing moves between the re-attach hello and the resumes.
		srv, err := gateway.NewServer(b, gateway.ServerConfig{Addr: "127.0.0.1:0", TickEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		dial := func(token string) (*gateway.Client, gateway.Response) {
			t.Helper()
			c, err := gateway.Dial(srv.Addr().String(), gateway.ClientConfig{Binary: true, Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			hello, err := c.Hello("dana", token)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return c, hello
		}
		// until advances by q until cond holds.
		until := func(q time.Duration, cond func() bool) {
			t.Helper()
			for deadline := time.Now().Add(30 * time.Second); !cond(); {
				if time.Now().After(deadline) {
					t.Fatalf("%s: condition never held", name)
				}
				if _, err := b.Advance(q); err != nil {
					t.Fatal(err)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		stats := func() gateway.Stats {
			st, _, err := b.ServeStats()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}

		c, hello := dial("")
		if err := c.Send(gateway.Request{Op: gateway.OpSubscribe, Query: "SELECT MAX(light) EPOCH DURATION 2048ms"}); err != nil {
			t.Fatal(err)
		}
		until(0, func() bool { return stats().Subscribes == 1 })
		sub, err := c.RecvType(gateway.TypeSubscribed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		until(testQuantum, func() bool { return stats().Updates >= 2 })
		c.Close()
		until(0, func() bool { return stats().Detaches == 1 })
		before := stats().Updates
		until(testQuantum, func() bool { return stats().Updates >= before+2 }) // parks in the ring

		c, hello = dial(hello.Token)
		if len(hello.Subs) != 1 || hello.Subs[0].Sub != sub.Sub || hello.Subs[0].LastSeq < 4 {
			t.Fatalf("%s: re-attach listed %+v", name, hello.Subs)
		}
		last := hello.Subs[0].LastSeq
		if err := c.Send(gateway.Request{Op: gateway.OpResume, Sub: sub.Sub, After: last + 1}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.RecvType(gateway.TypeSubscribed)
		if err == nil {
			t.Fatalf("%s: resume after seq %d of %d was acked: %+v", name, last+1, last, resp)
		}
		_, text, _ := strings.Cut(resp.Error, ": ") // drop the tier's name
		if want := fmt.Sprintf("resume after seq %d but only %d delivered", last+1, last); text != want {
			t.Errorf("%s: refused with %q, want the gateway's %q", name, resp.Error, want)
		}

		// The refusal cost nothing: the parked tail replays, gap-free.
		if err := c.Send(gateway.Request{Op: gateway.OpResume, Sub: sub.Sub, After: last - 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecvType(gateway.TypeSubscribed); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seq := last - 1; seq <= last; seq++ {
			u, err := c.RecvType(gateway.TypeAgg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if u.Seq != seq {
				t.Fatalf("%s: resumed stream delivered seq %d, want %d", name, u.Seq, seq)
			}
		}
		if st := stats(); st.Resumes != 1 || st.ResumeGaps != 0 {
			t.Errorf("%s: resumes=%d gaps=%d, want 1 and 0", name, st.Resumes, st.ResumeGaps)
		}
	}
}

// TestDetachedSessionsAreReapedOnEveryTier: a named client that disconnects
// and never comes back stops holding a session slot — and its queries their
// upstream fragments and in-network queries — after gateway.DefaultIdleTimeout
// of virtual time, on every stack shape; a session a client still holds is
// never reaped. Only the bare gateway used to reap: behind a router or a
// coordinator the sessions piled up until MaxSessions refused every hello.
func TestDetachedSessionsAreReapedOnEveryTier(t *testing.T) {
	for name, b := range stacks(t, 0) {
		gone, err := b.Register("gone")
		if err != nil {
			t.Fatal(err)
		}
		held, err := b.Register("held")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := subscribeVia(t, b, gone, "SELECT MAX(light) EPOCH DURATION 2048ms"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := gone.Detach(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// upstream is what the tier holds for its subscribers further down.
		upstream := func() int {
			switch b := b.(type) {
			case *federation.Router:
				sh := b.ShardStates()
				return sh[0].Upstreams + sh[1].Upstreams
			case *Coordinator:
				return b.ShareStats().FragmentsActive
			}
			st, _, _ := b.ServeStats()
			return st.SharedQueries
		}
		advance := func(quanta int) gateway.Stats {
			for ; quanta > 0; quanta-- {
				if _, err := b.Advance(testQuantum); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			st, _, err := b.ServeStats()
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		// The last quantum that ends short of the timeout: still there.
		short := int((gateway.DefaultIdleTimeout - 1) / testQuantum)
		if st := advance(short); st.IdleReaped != 0 || st.ActiveSessions != 2 || upstream() == 0 {
			t.Fatalf("%s: reaped=%d sessions=%d upstream=%d before the timeout", name, st.IdleReaped, st.ActiveSessions, upstream())
		}
		// The first Advance that starts past the timeout reaps at its commit
		// boundary.
		st := advance(2)
		if st.IdleReaped != 1 || st.ActiveSessions != 1 || st.ActiveSubscriptions != 0 || st.SharedQueries != 0 || upstream() != 0 {
			t.Errorf("%s: reaped=%d sessions=%d subs=%d shared=%d upstream=%d, want 1/1/0/0/0",
				name, st.IdleReaped, st.ActiveSessions, st.ActiveSubscriptions, st.SharedQueries, upstream())
		}
		if _, _, err := b.Attach("gone", gone.Token()); err == nil || !strings.Contains(err.Error(), `no session "gone"`) {
			t.Errorf("%s: attach to a reaped session = %v", name, err)
		}
		if err := held.Detach(); err != nil {
			t.Errorf("%s: the held session did not survive: %v", name, err)
		}
	}
}
