package core

import (
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// mapperFixture is one acquisition synthetic query with `members`
// contributors — a covering acquisition plus light-range acquisitions and
// aggregates that re-filter, on one epoch so all fire together — and one
// epoch of `rows` rows of its stream.
func mapperFixture(tb testing.TB, members, rows int) (*Optimizer, query.ID, sim.Time, []query.Row) {
	tb.Helper()
	o := newTestOptimizerQuick(DefaultAlpha)
	texts := []string{"SELECT nodeid, light, temp EPOCH DURATION 2048ms"}
	for i := 1; i < members; i++ {
		if i%2 == 1 {
			texts = append(texts, fmt.Sprintf("SELECT light WHERE light >= %d EPOCH DURATION 2048ms", 100*i))
		} else {
			texts = append(texts, fmt.Sprintf("SELECT MAX(light), MIN(temp) WHERE light <= %d EPOCH DURATION 2048ms", 1000-100*i))
		}
	}
	for i, s := range texts {
		q := query.MustParse(s)
		q.ID = query.ID(i + 1)
		if _, err := o.Insert(q); err != nil {
			tb.Fatal(err)
		}
	}
	if o.SyntheticCount() != 1 {
		tb.Fatalf("fixture: %d synthetic queries, want 1", o.SyntheticCount())
	}
	syn, _ := o.SyntheticFor(1)
	at := sim.Time(query.MinEpoch)
	rng := sim.NewRand(1)
	out := make([]query.Row, rows)
	for i := range out {
		out[i] = query.Row{Node: topology.NodeID(i + 1), Time: at}
		out[i].Values.Set(field.AttrNodeID, float64(i+1))
		out[i].Values.Set(field.AttrLight, 1000*rng.Float64())
		out[i].Values.Set(field.AttrTemp, 100*rng.Float64())
	}
	return o, syn.ID, at, out
}

// BenchmarkMapAcquisition is the micro view of the base station's mapping
// step: one epoch of one synthetic query's rows mapped to every member.
func BenchmarkMapAcquisition(b *testing.B) {
	for _, rows := range []int{16, 144} {
		for _, members := range []int{1, 8} {
			b.Run(fmt.Sprintf("rows=%dxmembers=%d", rows, members), func(b *testing.B) {
				o, sid, at, in := mapperFixture(b, members, rows)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					acq, agg := o.MapAcquisition(sid, at, in)
					if len(acq)+len(agg) != members {
						b.Fatalf("%d deliveries, want %d", len(acq)+len(agg), members)
					}
				}
			})
		}
	}
}

// The churn workload's shape at one shard gateway of the full stack:
// swapLive queries live on a PaperGrid(4) shard, half of them §4.3 queries
// and half the region aggregates the serving tiers send down, and every swap
// terminates the oldest and admits the next of the stream, with a round's
// readings folded into the histograms before each of the two operations.
const swapLive = 36

func swapLevels(tb testing.TB) []int {
	tb.Helper()
	topo, err := topology.PaperGrid(4)
	if err != nil {
		tb.Fatal(err)
	}
	return topo.LevelSizes()
}

// churnStream returns n queries with IDs 1..n, alternating §4.3 random
// queries and SUM/COUNT aggregates over sensor-id ranges of the 15-sensor
// shard — the whole shard (no predicate), halves, quarters, single sensors.
func churnStream(n int) []query.Query {
	random := workload.Random(workload.RandomConfig{Seed: 1, NumQueries: (n + 1) / 2})
	rng := sim.NewRand(3)
	out := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		q := random[i/2].Query
		if i%2 == 1 {
			text := "SELECT SUM(light), COUNT(light)"
			if width := []int{15, 8, 4, 1}[rng.Intn(4)]; width < 15 {
				lo := 1 + rng.Intn(16-width)
				text += fmt.Sprintf(" WHERE nodeid >= %d AND nodeid <= %d", lo, lo+width-1)
			}
			q = query.MustParse(fmt.Sprintf("%s EPOCH DURATION %dms", text, 2048<<rng.Intn(3)))
		}
		q.ID = query.ID(i + 1)
		out = append(out, q)
	}
	return out
}

// observeRound feeds one round of the shard's acquisition rows — every
// sensor's id, a light reading skewed dark and a temp around 70 — to observe.
func observeRound(rng *sim.Rand, observe func(field.Attr, float64)) {
	for id := 1; id <= 15; id++ {
		u := rng.Float64()
		observe(field.AttrNodeID, float64(id))
		observe(field.AttrLight, 1000*u*u*u)
		observe(field.AttrTemp, 60+20*rng.Float64())
	}
}

// swapper holds swapLive queries of the churn stream live in an optimizer
// and swaps the oldest for the next, cycling through the stream under fresh
// IDs.
type swapper struct {
	tb     testing.TB
	o      *Optimizer
	rng    *sim.Rand
	stream []query.Query
	next   int
}

func newSwapper(tb testing.TB) *swapper {
	tb.Helper()
	m, err := cost.NewModel(swapLevels(tb), cost.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	s := &swapper{tb: tb, o: NewOptimizer(m, Options{}), rng: sim.NewRand(1), stream: churnStream(500)}
	for ; s.next < swapLive; s.next++ {
		s.admit()
	}
	return s
}

func (s *swapper) admit() {
	q := s.stream[s.next%len(s.stream)]
	q.ID = query.ID(s.next + 1)
	if _, err := s.o.Insert(q); err != nil {
		s.tb.Fatal(err)
	}
}

func (s *swapper) swap() {
	observeRound(s.rng, s.o.Model().Observe)
	if _, err := s.o.Terminate(query.ID(s.next + 1 - swapLive)); err != nil {
		s.tb.Fatal(err)
	}
	observeRound(s.rng, s.o.Model().Observe)
	s.admit()
	s.next++
}

// BenchmarkOptimizerSwap is the micro view of the write path: one swap of
// the churn shape. Unlike a replay into an optimizer whose histograms never
// move, every operation here reprices what it touches.
func BenchmarkOptimizerSwap(b *testing.B) {
	s := newSwapper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.swap()
	}
}

// TestSwapAllocs bounds what one swap allocates: the lists and records an
// operation hands out or keeps (a user entry, member lists, a residual
// predicate list per compiled plan, the Change's clones), not one per member
// it walks. The optimizer this one replaced read 231 on the same swaps;
// this one reads 4.
func TestSwapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's own under the race detector")
	}
	s := newSwapper(t)
	for i := 0; i < 200; i++ {
		s.swap()
	}
	if got := testing.AllocsPerRun(400, s.swap); got > 8 {
		t.Fatalf("one swap allocates %.1f times, want <= 8", got)
	}
}
