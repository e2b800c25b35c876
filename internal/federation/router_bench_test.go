package federation

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/query"
)

// benchQuantum is the end-to-end benchmark's round: one 2048 ms quantum.
const benchQuantum = 2048 * time.Millisecond

// benchRouterRounds times router rounds and nothing else — no sockets, no
// coordinator: four shards of side × side nodes, four subscriptions (two
// whole-field aggregates, a region aggregate and a region acquisition, both
// straddling shards), every stream drained after every round. This file
// touches nothing unexported, so it also builds against an older router for
// a before/after row.
func benchRouterRounds(b *testing.B, side int) {
	const shards = 4
	r, err := New(Config{Shards: shards, Side: side, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	spn := side*side - 1
	lo, hi := spn/2, spn+spn/2 // the upper half of shard 0 and the lower half of shard 1
	sess, err := r.Register("bench")
	if err != nil {
		b.Fatal(err)
	}
	var tks []*Ticket
	for _, text := range []string{
		"SELECT MAX(light), AVG(temp) EPOCH DURATION 2048ms",
		"SELECT SUM(light), COUNT(light), AVG(light) EPOCH DURATION 4096ms",
		fmt.Sprintf("SELECT SUM(light), COUNT(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION 2048ms", lo, hi),
		fmt.Sprintf("SELECT light WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION 8192ms", lo, hi),
	} {
		tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)})
		if err != nil {
			b.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if _, err := r.Advance(0); err != nil {
		b.Fatal(err)
	}
	var subs []*Sub
	for _, tk := range tks {
		sub, err := tk.Wait()
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, sub)
	}
	updates := 0
	var buf []gateway.Update
	round := func() {
		if _, err := r.Advance(benchQuantum); err != nil {
			b.Fatal(err)
		}
		for _, sub := range subs {
			drain(sub.Updates(), &buf)
			updates += len(buf)
			buf = buf[:0]
		}
	}
	for i := 0; i < 16; i++ { // floods settle, accumulators and rings reach their size
		round()
	}
	updates = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if updates == 0 {
		b.Fatal("no update delivered")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
}

// BenchmarkRouterRound is the router's round at two shard sizes: side=4
// (4 × 15 sensors, the end-to-end benchmark's full_stack shape) and side=12
// (4 × 143, where an idle process would gain from overlapping the shards).
func BenchmarkRouterRound(b *testing.B) {
	for _, side := range []int{4, 12} {
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) { benchRouterRounds(b, side) })
	}
}
