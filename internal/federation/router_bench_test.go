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

// roundRouter builds the router a round is timed on — no sockets, no
// coordinator: four shards of side × side nodes, four subscriptions (two
// whole-field aggregates, a region aggregate and a region acquisition, both
// straddling shards), committed. round advances one quantum and drains every
// stream, counting the updates. This file touches nothing unexported, so it
// also builds against an older router for a before/after row.
func roundRouter(tb testing.TB, side int) (r *Router, round func(), updates *int) {
	const shards = 4
	r, err := New(Config{Shards: shards, Side: side, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.Close() })
	spn := side*side - 1
	lo, hi := spn/2, spn+spn/2 // the upper half of shard 0 and the lower half of shard 1
	sess, err := r.Register("bench")
	if err != nil {
		tb.Fatal(err)
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
			tb.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if _, err := r.Advance(0); err != nil {
		tb.Fatal(err)
	}
	var subs []*Sub
	for _, tk := range tks {
		sub, err := tk.Wait()
		if err != nil {
			tb.Fatal(err)
		}
		subs = append(subs, sub)
	}
	updates = new(int)
	batches := make([][]gateway.Update, len(subs)) // each sub's last batch, recycled by its next take
	round = func() {
		if _, err := r.Advance(benchQuantum); err != nil {
			tb.Fatal(err)
		}
		sess.Read(func() {
			for i, sub := range subs {
				batches[i], _ = sub.Take(batches[i])
				*updates += len(batches[i])
			}
		})
	}
	for i := 0; i < 16; i++ { // floods settle, accumulators and rings reach their size
		round()
	}
	*updates = 0
	return r, round, updates
}

// BenchmarkRouterRound is the router's round at two shard sizes: side=4
// (4 × 15 sensors, the end-to-end benchmark's full_stack shape) and side=12
// (4 × 143, where an idle process would gain from overlapping the shards).
func BenchmarkRouterRound(b *testing.B) {
	for _, side := range []int{4, 12} {
		b.Run(fmt.Sprintf("side=%d", side), func(b *testing.B) {
			_, round, updates := roundRouter(b, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			if *updates == 0 {
				b.Fatal("no update delivered")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// routerReleasedAllocsMax is the allocation budget of one released epoch in
// roundRouter's side=4 round, shard simulations and their gateways included:
// measured 51 allocations per round of 2.76 released epochs.
const routerReleasedAllocsMax = 18.45

// TestRouterRoundAllocs pins what a router round allocates once its tables
// have reached their size: per released epoch, routerReleasedAllocsMax; for
// an idle Advance(0) — the commit-only round a server's pacer runs all the
// time — nothing at all. share.TestRoundAllocs is the coordinator's.
func TestRouterRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r, round, _ := roundRouter(t, 4)
	before := r.FedStats()
	perRound := testing.AllocsPerRun(50, round)
	after := r.FedStats()
	released := float64(after.MergedEpochs-before.MergedEpochs) / 51 // AllocsPerRun warms up with one extra run
	if released == 0 {
		t.Fatal("no epoch released")
	}
	if per := perRound / released; per > routerReleasedAllocsMax {
		t.Errorf("%.2f allocs per released epoch (%v per round of %.2f), want <= %v", per, perRound, released, routerReleasedAllocsMax)
	}
	idle := testing.AllocsPerRun(50, func() {
		if _, err := r.Advance(0); err != nil {
			t.Fatal(err)
		}
	})
	if idle != 0 {
		t.Errorf("idle Advance(0): %v allocs, want 0", idle)
	}
}
