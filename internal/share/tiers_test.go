package share

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
)

// The tests here drive every stack shape through the one surface they
// share, gateway.Backend, to pin what must not differ between them.

// stacks builds a bare gateway, a bare router, share over a gateway and
// share over a router, each with the given subscriber buffer bound.
func stacks(t *testing.T, buffer int) map[string]gateway.Backend {
	t.Helper()
	newRouter := func() *federation.Router {
		rt, err := federation.New(federation.Config{Shards: 2, Side: 3, Seed: 1, Buffer: buffer})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rt.Close() })
		return rt
	}
	overGateway, _ := newTestCoord(t, gateway.Config{}, Config{Buffer: buffer})
	under := newRouter()
	overRouter, err := New(Config{Upstream: OverRouter(under), Sensors: 2 * (3*3 - 1), Cell: testCell, Buffer: buffer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = overRouter.Close() })
	return map[string]gateway.Backend{
		"gateway":            newTestGateway(t, gateway.Config{Buffer: buffer}),
		"router":             newRouter(),
		"share over gateway": overGateway,
		"share over router":  overRouter,
	}
}

// subscribeVia runs the blocking subscribe while pumping commits.
func subscribeVia(t *testing.T, b gateway.Backend, sess gateway.ServerSession, text string) (gateway.ServerSub, error) {
	t.Helper()
	type res struct {
		sub gateway.ServerSub
		err error
	}
	done := make(chan res, 1)
	go func() {
		sub, err := sess.Subscribe(gateway.SubscribeRequest{Query: query.MustParse(text)})
		done <- res{sub, err}
	}()
	for {
		select {
		case r := <-done:
			return r.sub, r.err
		default:
			if _, err := b.Advance(0); err != nil {
				t.Fatal(err)
			}
		}
	}
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
		sess, err := b.RegisterSession("alice")
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

// TestSessionLifecycleCountersAgreeAcrossTiers: a client Detach → Attach →
// Resume cycle counts the same on every stack shape. The router used to
// report none of the four and the coordinator no detaches or attaches, so
// the ttmqo_gateway_* families under-reported on -shards / -share.
func TestSessionLifecycleCountersAgreeAcrossTiers(t *testing.T) {
	const buffer = 4
	for name, b := range stacks(t, buffer) {
		sess, err := b.RegisterSession("carol")
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
				for read {
					select {
					case u, ok := <-sub.Updates():
						if ok {
							last = u.Seq
							continue
						}
					default:
					}
					break
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
			if sess, infos, err = b.AttachSession("carol", sess.Token()); err != nil {
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
