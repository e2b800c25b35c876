package core

import (
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
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
