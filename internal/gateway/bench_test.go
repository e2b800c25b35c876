package gateway

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// The micro view of the serving hot path: `make bench` prints ns/op and
// allocs/op for one frame encode and one 64-subscription round, and
// ns/frame and allocs/frame for the client reading one fan-out epoch. Trajectory
// only — the exact properties (zero allocations, one write per round) are
// asserted by TestAppendUpdateFrameZeroAlloc, TestStageAllocatesNothing and
// TestWriterRoundCostsOneWrite; the end-to-end numbers are bench/run.sh's.

// benchUpdate builds the canonical workload item: one acquisition epoch of
// a 16-node grid reading two attributes — the shape the paper's serving
// experiments fan out every epoch.
func benchUpdate() Update {
	rows := make([]query.Row, 16)
	for i := range rows {
		rows[i] = query.Row{
			Node: topology.NodeID(1 + i),
			Values: field.ValuesOf(map[field.Attr]float64{
				field.AttrLight: 500 + float64(i)*3.25,
				field.AttrTemp:  20 + float64(i)*0.5,
			}),
		}
	}
	return Update{Sub: 7, QueryID: 3, Seq: 42, At: 8192 * time.Millisecond, Rows: rows}
}

// countingWriter counts underlying writes — each one models a syscall on a
// real connection.
type countingWriter struct{ writes int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// BenchmarkEncodeUpdate: build one binary update frame, no I/O.
func BenchmarkEncodeUpdate(b *testing.B) {
	u := benchUpdate()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(sealFrame(appendUpdateFrame(buf[:0], &u))) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// stubStreams are live subscriptions on one session of a stub kernel, the
// i-th with id i+1 and trace trace(i); a test pushes to them holding mu.
type stubStreams struct {
	mu   sync.Mutex
	subs []*Subscription
}

func newStubStreams(n int, trace func(i int) uint64) *stubStreams {
	sb := &stubStreams{}
	k := tier.New(tier.Config{Name: "stub", Mu: &sb.mu, Buffer: 8, MaxSessions: 1, SessionQuota: n})
	s, err := k.Register("stub")
	if err != nil {
		panic(err)
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i := 0; i < n; i++ {
		sb.subs = append(sb.subs, k.RestoreSubLocked(s, SubID(i+1), &tier.Group{}, trace(i)))
	}
	return sb
}

// stubSub is a live subscription with the given id, alone on a stub kernel:
// a writer whose streams' batches the test sets asks a stream only for its
// id and, once the stream closed, its reason.
func stubSub(id SubID) *Subscription {
	var mu sync.Mutex
	k := tier.New(tier.Config{Name: "stub", Mu: &mu, Buffer: 1, MaxSessions: 1, SessionQuota: 1})
	s, err := k.Register("stub")
	if err != nil {
		panic(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return k.RestoreSubLocked(s, id, &tier.Group{}, 0)
}

// BenchmarkPumpRound: one epoch delivered to each of 64 subscriptions of
// one connection through the writer's own pump — push, take, encode once,
// stage per subscriber, flush — with and without the trace trailer.
func BenchmarkPumpRound(b *testing.B) {
	const subs = 64
	traced := benchUpdate()
	traced.Trace = 0xC0FFEE
	traced.Prov = tracing.Prov{Shards: 0b11, Frags: 2, Reused: 1, CacheHit: true, Rung: 1}
	for _, c := range []struct {
		name string
		u    Update
	}{{"untraced", benchUpdate()}, {"traced", traced}} {
		b.Run(c.name, func(b *testing.B) {
			w := newConnWriter(io.Discard)
			w.binary = true
			sb := newStubStreams(subs, func(int) uint64 { return c.u.Trace })
			for _, sub := range sb.subs {
				w.streams = append(w.streams, stream{sub: sub})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.mu.Lock()
				for _, sub := range sb.subs {
					u := c.u
					sub.Push(&u)
				}
				sb.mu.Unlock()
				if err := w.pump(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientRecvFanout: the client side of one fanout_heavy-shaped
// epoch on one binary connection — 16 queries x 16 subscribers, pumped once
// by the connection writer — read back through Client.Recv; ns/frame and
// allocs/frame are per delivered result frame.
func BenchmarkClientRecvFanout(b *testing.B) {
	const queries, subs = 16, 16
	var wire bytes.Buffer
	w := newConnWriter(&wire)
	w.binary = true
	sb := newStubStreams(queries*subs, func(int) uint64 { return 0 })
	sb.mu.Lock()
	for q := 0; q < queries; q++ {
		u := benchUpdate()
		u.QueryID = query.ID(q + 1)
		for s := 0; s < subs; s++ {
			sub := sb.subs[q*subs+s]
			v := u
			sub.Push(&v)
			w.streams = append(w.streams, stream{sub: sub})
		}
	}
	sb.mu.Unlock()
	if err := w.pump(); err != nil {
		b.Fatal(err)
	}
	epoch := wire.Bytes()
	rd := bytes.NewReader(epoch)
	c := &Client{br: bufio.NewReaderSize(rd, 1<<20)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(epoch)
		c.br.Reset(rd)
		for f := 0; f < queries*subs; f++ {
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	frames := float64(b.N * queries * subs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/frames, "allocs/frame")
}
