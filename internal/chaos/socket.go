package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// The wall-clock drills exercise the stack under demand it cannot absorb
// rather than under injected faults, over real TCP: the run's stack behind a
// gateway.Server, and well-behaved socket clients (Dial → Hello → subscribe →
// Recv loop into a StreamChecker) beside whatever misbehaves.

// serve fronts the run's stack with a TCP server on an ephemeral port.
func (r *run) serve(cfg gateway.ServerConfig) (*gateway.Server, error) {
	cfg.Addr = "127.0.0.1:0"
	return gateway.NewServer(r.st.Top(), cfg)
}

// closeServer must not hang on a wedged forwarder.
func (r *run) closeServer(srv *gateway.Server) {
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			r.violate("server close: %v", err)
		}
	case <-time.After(10 * time.Second):
		r.violate("server close wedged behind a dead connection")
	}
}

// sockReader is one well-behaved socket client.
type sockReader struct {
	c     *gateway.Client
	check *StreamChecker
	err   error
}

// each runs fn(0..n-1) concurrently and waits for all of them.
func each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// dial connects the run's Clients concurrently — Dial, Hello as name-<i>,
// then subscribe — and returns once every one has subscribed or failed.
func (r *run) dial(addr, name string, cc gateway.ClientConfig, subscribe func(i int, c *gateway.Client) error) []*sockReader {
	rs := make([]*sockReader, r.cfg.Clients)
	cc.Timeout = 15 * time.Second
	each(len(rs), func(i int) {
		s := &sockReader{check: NewStreamChecker()}
		rs[i] = s
		if s.c, s.err = gateway.Dial(addr, cc); s.err != nil {
			return
		}
		if _, s.err = s.c.Hello(fmt.Sprintf("%s-%02d", name, i), ""); s.err == nil {
			s.err = subscribe(i, s.c)
		}
	})
	return rs
}

// read runs every client's Recv loop into its StreamChecker until it has
// seen epochs fresh updates, then hangs up, folds the checkers into the
// run's and reports every client error as a violation.
func (r *run) read(rs []*sockReader, epochs int64) {
	each(len(rs), func(i int) {
		s := rs[i]
		if s.c == nil {
			return
		}
		defer s.c.Close()
		for s.err == nil && s.check.Updates < epochs {
			resp, err := s.c.Recv()
			switch {
			case err != nil:
				s.err = fmt.Errorf("stream read: %w", err)
			case resp.Type == gateway.TypeError:
				s.err = fmt.Errorf("subscribe: %s", resp.Error)
			case resp.Type == gateway.TypeRows || resp.Type == gateway.TypeAgg:
				s.check.Observe(gateway.Update{Sub: resp.Sub, Seq: resp.Seq, At: sim.Time(resp.AtMS) * sim.Time(time.Millisecond)})
			}
		}
	})
	for i, s := range rs {
		if s.err != nil {
			r.violate("client %d: %v", i, s.err)
			continue
		}
		r.check.Merge(s.check)
	}
}

// ---------------------------------------------------------------------------
// thundering-herd

const (
	// herdMaxStaged is the admission bound the herd (24 clients by default)
	// must dwarf or the drill is vacuous; herdEpochs is how many fresh epochs
	// each member must receive once the herd has cleared.
	herdMaxStaged = 4
	herdEpochs    = 2
)

// herd fires every client's subscribe at once against the admission bound;
// shed members retry with the client backoff policy until all are admitted.
func herd(r *run) error {
	gw, rep := r.st.Gateway(), r.rep
	srv, err := r.serve(gateway.ServerConfig{TickEvery: 10 * time.Millisecond, Quantum: r.d.tick()})
	if err != nil {
		return err
	}
	defer srv.Close()

	// Mailbox-depth watcher: samples the gateway's staged depth while the
	// herd runs. Admission must keep it at or under the bound.
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				rep.MaxStagedSeen = max(rep.MaxStagedSeen, gw.Status().Staged)
			}
		}
	}()

	type member struct {
		sheds             int64
		minSleep, latency time.Duration
	}
	members := make([]member, r.cfg.Clients)
	pool := scriptPool(nil)
	rs := r.dial(srv.Addr().String(), "herd", gateway.ClientConfig{Binary: true}, func(i int, c *gateway.Client) error {
		m := &members[i]
		t0 := time.Now()
		_, err := c.SubscribeRetry(pool[i%len(pool)].String(), "h", gateway.RetryConfig{
			Attempts: 400,
			Backoff:  resilience.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
			Sleep: func(d time.Duration) {
				m.sheds++
				if m.minSleep == 0 || d < m.minSleep {
					m.minSleep = d
				}
				time.Sleep(d)
			},
		})
		m.latency = time.Since(t0)
		return err
	})
	close(stop)
	<-watched

	// Every herd member is admitted: the no-double-admit invariant is that
	// the retried subscribes applied exactly once each.
	st := gw.Stats()
	if st.Subscribes != int64(len(rs)) {
		r.violate("subscribes applied = %d, want exactly %d (a shed subscribe double-admitted)", st.Subscribes, len(rs))
	}
	if st.ActiveSubscriptions != len(rs) {
		r.violate("live subscriptions = %d, want %d", st.ActiveSubscriptions, len(rs))
	}
	rep.StatsSheds = st.ShedQueue + st.ShedDeadline + st.ShedSubs + st.ShedBrownout
	r.read(rs, herdEpochs)

	var latencies []time.Duration
	for i, m := range members {
		if rs[i].err != nil {
			continue
		}
		rep.Sheds += m.sheds
		if m.sheds > 0 && (rep.MinSleepMS == 0 || m.minSleep.Milliseconds() < rep.MinSleepMS) {
			rep.MinSleepMS = m.minSleep.Milliseconds()
		}
		latencies = append(latencies, m.latency)
	}
	if n := len(latencies); n > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P99SubscribeMS = latencies[(n*99+99)/100-1].Milliseconds()
	}
	if rep.Sheds == 0 || rep.StatsSheds == 0 {
		r.violate("herd never overloaded the mailbox (client sheds=%d, server sheds=%d)", rep.Sheds, rep.StatsSheds)
	}
	if rep.MaxStagedSeen > herdMaxStaged {
		r.violate("mailbox depth %d exceeded the %d bound", rep.MaxStagedSeen, herdMaxStaged)
	}
	if rep.Sheds > 0 && rep.MinSleepMS < herdRetryAfter.Milliseconds() {
		r.violate("a shed client slept %dms, under the %v retry-after floor", rep.MinSleepMS, herdRetryAfter)
	}
	if rep.P99SubscribeMS > 30_000 {
		r.violate("p99 subscribe latency %dms: admission effectively deadlocked", rep.P99SubscribeMS)
	}
	r.closeServer(srv)
	return nil
}

// ---------------------------------------------------------------------------
// slow-loris

const (
	// lorisEpochs is how many fresh epochs each healthy subscriber (2 by
	// default) must receive while the loris stalls.
	lorisEpochs = 25
	lorisQuery  = "SELECT nodeid, light EPOCH DURATION 2048"
	// lorisEvictWait bounds the wait for the slow-consumer bound to fire;
	// lorisQuiet is how long the victim's socket may stay silent before it
	// is poked.
	lorisEvictWait = 2600 * time.Millisecond
	lorisQuiet     = 400 * time.Millisecond
)

// loris opens a subscriber that stops reading mid-stream: it must be dropped
// by the server's write deadline or evicted by the gateway's slow-consumer
// bound — the races are the point — without wedging the fan-out for anyone
// else.
func loris(r *run) error {
	gw, rep := r.st.Gateway(), r.rep
	srv, err := r.serve(gateway.ServerConfig{
		TickEvery: 5 * time.Millisecond,
		// A fat quantum makes each tick deliver a burst of epochs, so the
		// victim's unread backlog fills its socket buffers in test time.
		Quantum:      16 * r.d.tick(),
		WriteTimeout: 150 * time.Millisecond,
		// The loris goes silent in both directions, so the read deadline
		// is its hard backstop: once it expires the handler cuts the
		// connection loose no matter what the kernel still has queued.
		ReadTimeout: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	// The victim speaks raw NDJSON on a shrunken receive buffer: it
	// subscribes, confirms the stream is live, then never reads again. The
	// buffer is shrunk before the handshake, so the window the kernel
	// advertises never exceeds it. Shrunk after, the peer keeps sending into
	// the larger window it was already offered, the excess is dropped, and
	// the backlog the victim finally drains trickles in at one
	// retransmission timeout per buffer, hiding the drop's verdict behind it.
	vd := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var serr error
		if err := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096)
		}); err != nil {
			return err
		}
		return serr
	}}
	vconn, err := vd.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer vconn.Close()
	vr := bufio.NewReader(vconn)
	vreq := func(line string) error {
		_ = vconn.SetDeadline(time.Now().Add(5 * time.Second))
		_, err := fmt.Fprintln(vconn, line)
		return err
	}
	vrecv := func() (gateway.Response, error) {
		_ = vconn.SetDeadline(time.Now().Add(10 * time.Second))
		line, err := vr.ReadBytes('\n')
		if err != nil {
			return gateway.Response{}, err
		}
		var resp gateway.Response
		return resp, json.Unmarshal(line, &resp)
	}
	if err := vreq(`{"op":"hello","client":"loris"}`); err != nil {
		return err
	}
	if resp, err := vrecv(); err != nil || resp.Type != gateway.TypeHello {
		return fmt.Errorf("loris hello: %v (%+v)", err, resp)
	}
	if err := vreq(fmt.Sprintf(`{"op":"subscribe","query":%q}`, lorisQuery)); err != nil {
		return err
	}
	for live := false; !live; {
		resp, err := vrecv()
		if err != nil {
			return fmt.Errorf("loris stream never started: %w", err)
		}
		if resp.Type == gateway.TypeError {
			return fmt.Errorf("loris subscribe: %s", resp.Error)
		}
		live = resp.Type == gateway.TypeRows
	}
	stallStart := time.Now() // from here on the loris never reads

	// The healthy subscribers must progress right through the stall.
	rs := r.dial(addr, "healthy", gateway.ClientConfig{}, func(_ int, c *gateway.Client) error {
		return c.Send(gateway.Request{Op: gateway.OpSubscribe, Query: lorisQuery, Tag: "h"})
	})
	r.read(rs, lorisEpochs)
	if want := int64(len(rs) * lorisEpochs); r.check.Updates < want {
		r.violate("healthy subscribers starved behind the loris: %d updates, want >= %d", r.check.Updates, want)
	}

	// Wait for the stall to bite on the victim itself: the slow-consumer
	// bound evicts its stream, or the forwarder's blocked write hits the
	// write deadline and severs it. The eviction counter alone cannot tell:
	// a healthy client that just hung up can be evicted before its session
	// detaches. So wait until no session but the victim's is attached and
	// the victim holds no live stream (every live stream left is parked in
	// a resume ring), or until no session is attached at all.
	for deadline := time.Now().Add(lorisEvictWait); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if st := gw.Status(); st.Attached == 0 || st.Attached == 1 && st.ActiveSubscriptions == st.ResumeRings {
			break
		}
	}

	// The victim's backlog overflowed during the stall. Drain it: an evicted
	// stream ends in a closed notice (the slow-consumer bound fired, the
	// forwarder stayed unwedged); a blocked-write sever ends in a hard read
	// error. A quiet socket is NOT proof the conn is still served — a
	// severed socket's FIN can sit behind megabytes of undeliverable
	// zero-window backlog — so a silent stream gets poked with a ping: a
	// closed peer socket answers data with an RST, while a live handler
	// answers with a pong, which IS the violation.
	dropped := func(reason string) {
		rep.VictimDropped, rep.DropReason = true, reason
		rep.VictimDropMS = time.Since(stallStart).Milliseconds()
	}
	_ = vconn.SetDeadline(time.Now().Add(lorisQuiet))
	for poked := false; !rep.VictimDropped && rep.DropReason == ""; {
		line, err := vr.ReadBytes('\n')
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			if poked {
				r.violate("loris conn neither reset nor answering %v after it stopped reading", time.Since(stallStart))
				break
			}
			poked = true
			_ = vconn.SetDeadline(time.Now().Add(2500 * time.Millisecond))
			if _, err := fmt.Fprintln(vconn, `{"op":"ping"}`); err != nil {
				dropped("severed")
			}
			continue
		}
		if err != nil {
			dropped("severed")
			break
		}
		var resp gateway.Response
		if json.Unmarshal(line, &resp) != nil {
			continue
		}
		switch resp.Type {
		case gateway.TypeClosed:
			dropped(resp.Reason)
		case gateway.TypePong:
			r.violate("loris conn still served %v after it stopped reading (ping answered)", time.Since(stallStart))
			rep.DropReason = "served"
		}
	}

	r.closeServer(srv)
	if rep.DropReason == "evicted" && gw.Stats().Evicted == 0 {
		r.violate("victim stream closed as evicted but the gateway counted no evictions")
	}
	return nil
}
