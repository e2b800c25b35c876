package gateway

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// randomUpdate draws one update: rows or aggregates, sometimes degraded,
// sometimes traced.
func randomUpdate(rng *rand.Rand) Update {
	u := Update{
		Sub:     SubID(1 + rng.Intn(300)),
		QueryID: query.ID(1 + rng.Intn(4)),
		Seq:     uint64(1 + rng.Intn(1<<20)),
		At:      sim.Time(rng.Intn(64)) * 2048 * time.Millisecond,
	}
	if rng.Intn(2) == 0 {
		u.Rows = make([]query.Row, rng.Intn(6))
		for i := range u.Rows {
			u.Rows[i] = query.Row{Node: topology.NodeID(1 + i)}
			for _, a := range field.AllAttrs() {
				if rng.Intn(2) == 0 {
					u.Rows[i].Values.Set(a, rng.NormFloat64()*100)
				}
			}
		}
	} else {
		u.Aggs = make([]query.AggResult, rng.Intn(4))
		for i := range u.Aggs {
			u.Aggs[i] = query.AggResult{
				Agg:   query.Agg{Op: query.Max + query.AggOp(rng.Intn(5)), Attr: field.AttrLight},
				Group: int64(rng.Intn(5)),
				Value: rng.NormFloat64(),
				Empty: rng.Intn(8) == 0,
			}
		}
	}
	if rng.Intn(4) == 0 {
		u.Degraded, u.Coverage = true, rng.Float64()
	}
	if rng.Intn(3) == 0 {
		u.Trace = 1 + rng.Uint64()
		u.Prov = tracing.Prov{Shards: rng.Uint64() & 0xF, Frags: uint16(rng.Intn(9)), Reused: uint16(rng.Intn(3)),
			CacheHit: rng.Intn(2) == 0, Rung: uint8(rng.Intn(4))}
	}
	return u
}

// TestStageMatchesUpdateFrame: what the connection writer stages — head,
// cached body, trailer — is byte for byte appendUpdateFrame's frame, whether
// the body was a cache hit (same payload, another subscriber) or a miss; and
// a body is never replayed for a different payload that merely shares the
// query id and timestamp.
func TestStageMatchesUpdateFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 200; round++ {
		var out bytes.Buffer
		w := newConnWriter(&out)
		w.binary = true
		var want []byte
		stage := func(u Update) {
			t.Helper()
			if err := w.stage(&u); err != nil {
				t.Fatal(err)
			}
			want = append(want, sealFrame(appendUpdateFrame(nil, &u))...)
		}
		encoded := 0
		for i := 0; i < 8; i++ {
			u := randomUpdate(rng)
			stage(u)
			encoded++
			// The same payload fanned out to other subscribers: cache hits.
			for j := 0; j < rng.Intn(4); j++ {
				v := u
				v.Sub, v.Seq, v.Trace = u.Sub+SubID(j+1), u.Seq+uint64(j), uint64(rng.Intn(2))*77
				stage(v)
			}
			// Same query id and timestamp, another slice with other values
			// (a cache replay beside the live epoch): must be re-encoded.
			v := u
			if v.Rows != nil {
				v.Rows = append([]query.Row(nil), u.Rows...)
				for i := range v.Rows {
					v.Rows[i].Values = field.ValuesOf(map[field.Attr]float64{field.AttrVoltage: float64(i) + 0.5})
				}
			} else {
				v.Aggs = append([]query.AggResult(nil), u.Aggs...)
				for i := range v.Aggs {
					v.Aggs[i].Value++
				}
			}
			if len(v.Rows)+len(v.Aggs) > 0 {
				stage(v)
				encoded++
			}
		}
		if got := len(w.bodies); got > encoded {
			t.Fatalf("round %d: %d cached bodies for %d distinct payloads", round, got, encoded)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("round %d: staged frames differ from appendUpdateFrame's", round)
		}
		if len(w.bodies) != 0 || len(w.arena) != 0 {
			t.Fatalf("round %d: cache outlived the flush", round)
		}
	}
}

// TestStageAllocatesNothing: the steady-state binary fan-out — cache miss
// and cache hit, traced and untraced — performs no allocation.
func TestStageAllocatesNothing(t *testing.T) {
	u := benchUpdate()
	ut := u
	ut.Sub, ut.Trace = 9, 0xC0FFEE
	w := newConnWriter(&countingWriter{})
	w.binary = true
	allocs := testing.AllocsPerRun(200, func() {
		_ = w.stage(&u)
		_ = w.stage(&ut)
		_ = w.flush()
	})
	if allocs != 0 {
		t.Errorf("stage+flush allocates %.1f objects per round, want 0", allocs)
	}
}

// countingConn counts the socket writes the server performs.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// handleCounted runs one Server.handle over a real TCP pair whose server
// side counts its writes, with no pacer: the test drives Advance itself.
func handleCounted(t *testing.T, gw Backend, cfg ServerConfig) (*countingConn, *Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := Dial(ln.Addr().String(), ClientConfig{Binary: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: sc}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	s := &Server{gw: gw, cfg: cfg, stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.handle(cc)
	t.Cleanup(func() { cc.Close(); s.wg.Wait() })
	return cc, c
}

// TestWriterRoundCostsOneWrite: a fan-out round costs at most two socket
// writes (one, unless the writer woke mid-round) in both shapes a round
// takes — one connection holding 64 subscriptions of one query that each
// receive an epoch, and one subscription receiving a quantum's burst of four
// epochs — and the handler's goroutines do not grow with its subscriptions.
func TestWriterRoundCostsOneWrite(t *testing.T) {
	for _, shape := range []struct {
		name        string
		subs, burst int
	}{
		{"64 subscriptions x 1 update", 64, 1},
		{"1 subscription x 4 updates", 1, 4},
	} {
		t.Run(shape.name, func(t *testing.T) { writerRoundCostsOneWrite(t, shape.subs, shape.burst) })
	}
}

func writerRoundCostsOneWrite(t *testing.T, subs, burst int) {
	const rounds = 16
	gw := newTestGateway(t, Config{SessionQuota: subs, Rate: 1e9, Burst: 1e9})
	cc, c := handleCounted(t, gw, ServerConfig{ReadTimeout: -1})
	if _, err := c.Hello("wide", ""); err != nil {
		t.Fatal(err)
	}
	// Commit staged subscribes without moving virtual time.
	stop := make(chan struct{})
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = gw.Advance(0)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	subscribe := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := c.Send(Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms"}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if _, err := c.RecvType(TypeSubscribed); err != nil {
				t.Fatal(err)
			}
		}
	}
	subscribe(1)
	base := runtime.NumGoroutine()
	subscribe(subs - 1)
	close(stop)
	<-pumped
	if grown := runtime.NumGoroutine() - base; grown > 0 {
		t.Errorf("%d subscriptions more grew the process by %d goroutines, want 0", subs-1, grown)
	}

	// Not every round releases its full share of epochs: read what each
	// pushed and charge the writes to the rounds that delivered in full.
	delivering, writes, lastSeq := 0, int64(0), map[SubID]uint64{}
	for r := 0; r < rounds; r++ {
		st0 := gw.Stats()
		w0 := cc.writes.Load()
		if _, err := gw.Advance(time.Duration(burst) * 2048 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		st1 := gw.Stats()
		pushed := int(st1.Updates - st0.Updates)
		for n := pushed; n > 0; n-- {
			resp, err := c.RecvType(TypeRows)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Seq != lastSeq[resp.Sub]+1 {
				t.Fatalf("round %d: sub %d delivered seq %d after %d", r, resp.Sub, resp.Seq, lastSeq[resp.Sub])
			}
			lastSeq[resp.Sub] = resp.Seq
		}
		if pushed == subs*burst {
			delivering++
			writes += cc.writes.Load() - w0
		}
	}
	if delivering < rounds/2 || len(lastSeq) != subs {
		t.Fatalf("%d of %d rounds delivered in full, to %d of %d subscriptions", delivering, rounds, len(lastSeq), subs)
	}
	perRound := float64(writes) / float64(delivering)
	t.Logf("socket writes per round of %d subscriptions x %d updates: %.2f", subs, burst, perRound)
	limit := 2.0
	if raceEnabled {
		limit = 8 // instrumented pushes are slow enough for the writer to lap them
	}
	if perRound > limit {
		t.Errorf("%.2f socket writes per round, want <= %.0f", perRound, limit)
	}
}

// TestWireOrdering pins DESIGN.md §5's wire-ordering invariant in both
// framings: per subscription the ack precedes the first frame, sequence
// numbers rise by one, and the closed notice follows the last frame and
// carries the reason; nothing is promised across subscriptions.
func TestWireOrdering(t *testing.T) {
	for _, binary := range []bool{true, false} {
		name := "binary"
		if !binary {
			name = "json"
		}
		t.Run(name, func(t *testing.T) {
			gw := newTestGateway(t, Config{})
			srv := newWireServer(t, gw, ServerConfig{TickEvery: time.Millisecond})
			c, err := Dial(srv.Addr().String(), ClientConfig{Binary: binary, Timeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Hello("orderly", ""); err != nil {
				t.Fatal(err)
			}
			texts := []string{
				"SELECT light EPOCH DURATION 2048ms",
				"SELECT MAX(temp) EPOCH DURATION 2048ms",
				"SELECT light EPOCH DURATION 2048ms",
				"SELECT light, temp EPOCH DURATION 4096ms",
			}
			for _, q := range texts {
				if err := c.Send(Request{Op: OpSubscribe, Query: q}); err != nil {
					t.Fatal(err)
				}
			}
			type state struct {
				acked, closed bool
				seq           uint64
			}
			streams := map[SubID]*state{}
			at := func(id SubID) *state {
				if streams[id] == nil {
					streams[id] = &state{}
				}
				return streams[id]
			}
			closed, unsubscribed := 0, false
			for closed < len(texts) {
				resp, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				st := at(resp.Sub)
				switch resp.Type {
				case TypeSubscribed:
					if st.seq != 0 {
						t.Fatalf("sub %d: ack after frame %d", resp.Sub, st.seq)
					}
					st.acked = true
				case TypeRows, TypeAgg:
					if !st.acked || st.closed || resp.Seq != st.seq+1 {
						t.Fatalf("sub %d: frame seq %d after seq %d (acked=%v closed=%v)", resp.Sub, resp.Seq, st.seq, st.acked, st.closed)
					}
					st.seq = resp.Seq
				case TypeClosed:
					if st.seq < 3 || resp.Reason != ReasonUnsubscribed.String() {
						t.Fatalf("sub %d closed for %q after seq %d", resp.Sub, resp.Reason, st.seq)
					}
					st.closed = true
					closed++
				default:
					t.Fatalf("unexpected response %+v", resp)
				}
				if unsubscribed || len(streams) < len(texts) {
					continue
				}
				done := true
				for _, st := range streams {
					done = done && st.seq >= 3
				}
				if done {
					unsubscribed = true
					for id := range streams {
						if err := c.Send(Request{Op: OpUnsubscribe, Sub: id}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// TestPushLeavesSubscribersInPlace: Deliver evicts its stalled subscribers
// only after it has ranged over the group's subscriber list, so no
// subscriber is skipped or visited twice by a list edit mid-range. The
// streams close at once (the kernel's rule); what the network and the WAL
// see of it — the query's cancellation — waits for the sweep at the next
// Advance.
func TestPushLeavesSubscribersInPlace(t *testing.T) {
	gw := newTestGateway(t, Config{Buffer: 1})
	sess, err := gw.Register("stall")
	if err != nil {
		t.Fatal(err)
	}
	var tks []*Ticket
	for i := 0; i < 3; i++ {
		tks = append(tks, stage(t, sess, "SELECT light EPOCH DURATION 2048ms"))
	}
	if _, err := gw.Advance(0); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Nobody reads: the second epoch overflows every one-slot buffer while
	// onRows is ranging over the list.
	if _, err := gw.Advance(3 * 2048 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	st := gw.Stats()
	// Every subscriber got the first epoch and lost the second, none was
	// skipped by a list edit mid-range.
	if st.Evicted != 3 || st.Updates != 3 || st.Dropped != 3 {
		t.Fatalf("evicted=%d updates=%d dropped=%d epochs=%d: push skipped or re-visited a subscriber",
			st.Evicted, st.Updates, st.Dropped, st.Epochs)
	}
	if st.ActiveSubscriptions != 0 || st.SharedQueries != 1 || st.Cancelled != 0 {
		t.Fatalf("before the sweep: active=%d shared=%d cancelled=%d, want 0/1/0",
			st.ActiveSubscriptions, st.SharedQueries, st.Cancelled)
	}
	if _, err := gw.Advance(0); err != nil {
		t.Fatal(err)
	}
	if st = gw.Stats(); st.SharedQueries != 0 || st.Cancelled != 1 {
		t.Fatalf("after the sweep: shared=%d cancelled=%d, want 0/1", st.SharedQueries, st.Cancelled)
	}
}

// TestReplyBeforeHalfCloseIsDelivered: a client that sends a request and
// half-closes (printf ... | nc -N) still reads the reply — the writer's last
// act is to flush what the handler staged before the read side ended.
func TestReplyBeforeHalfCloseIsDelivered(t *testing.T) {
	gw := newTestGateway(t, Config{})
	srv, err := NewServer(gw, ServerConfig{Addr: "127.0.0.1:0", TickEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(`{"op":"ping","tag":"last"}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(got, []byte(`"pong"`)) || !bytes.Contains(got, []byte(`"last"`)) {
			t.Fatalf("connection %d: read %q before EOF, want the pong", i, got)
		}
	}
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestOpenReportsFailedAck: when the ack cannot be staged, open says so (the
// handler then severs the connection) and does not register the stream.
func TestOpenReportsFailedAck(t *testing.T) {
	w := newConnWriter(failingWriter{})
	_ = w.write(Response{Type: TypePong})
	if err := w.sync(); err == nil {
		t.Fatal("flush to a failing writer succeeded")
	}
	sub := stubSub(1)
	if err := w.open(subscribed("", sub, false), sub); err == nil {
		t.Fatal("open staged an ack after the write side failed")
	}
	if len(w.streams) != 0 {
		t.Fatalf("%d streams registered behind a failed ack", len(w.streams))
	}
}

// TestServerCloseLeavesNoGoroutine: after Server.Close every handler and
// connection writer has exited, with subscriptions live and a backend that
// is still open (nothing ever closes the streams).
func TestServerCloseLeavesNoGoroutine(t *testing.T) {
	gw := newTestGateway(t, Config{})
	base := runtime.NumGoroutine()
	srv, err := NewServer(gw, ServerConfig{Addr: "127.0.0.1:0", TickEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c, err := Dial(srv.Addr().String(), ClientConfig{Binary: i%2 == 0, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for j := 0; j < 3; j++ {
			if err := c.Send(Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms"}); err != nil {
				t.Fatal(err)
			}
		}
		// A handler still blocked in a staged subscribe would need the
		// backend closed first (the documented drain order): wait them out.
		for j := 0; j < 3; j++ {
			if _, err := c.RecvType(TypeSubscribed); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RecvType(TypeRows); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// CloseAsync's ticket waiters end at the gateway's next commit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if _, err := gw.Advance(0); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left after Close (started with %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
