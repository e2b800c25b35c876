package network

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// TestLifecycleMatchesSpanLog runs the Figure 3 workloads and a §4.3
// random one, with cancellations, under every scheme, and feeds the
// reference span log (spanlog_ref_test.go) from outside the simulation:
// admissions and their injected synthetic queries around each Post, first
// results from the result hooks, cancels around each Cancel. The
// simulation's lifecycle spans, paired by tracing.Lifecycles, must give
// every query the reference's lifecycle and the same SpanSummary, every
// field bit for bit.
func TestLifecycleMatchesSpanLog(t *testing.T) {
	topo, err := topology.PaperGrid(6)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []struct {
		name string
		ws   []workload.TimedQuery
	}{
		{"A", workload.A()},
		{"B", workload.B()},
		{"C", workload.C()},
		{"Random", workload.Random(workload.RandomConfig{Seed: 3, NumQueries: 40})},
	}
	for _, w := range workloads {
		for _, scheme := range AllSchemes() {
			t.Run(fmt.Sprintf("%s/%v", w.name, scheme), func(t *testing.T) {
				s, err := New(Config{Topo: topo, Scheme: scheme, Seed: 1, DiscardResults: true})
				if err != nil {
					t.Fatal(err)
				}
				ref := refLifecycles(t, s, w.ws)
				s.Run(10 * time.Minute)

				want := ref.Snapshot()
				got := tracing.Lifecycles(s.Spans().Snapshot())
				if len(got) != len(want) {
					t.Fatalf("%d lifecycles, reference has %d", len(got), len(want))
				}
				for i, r := range want {
					l := got[i]
					if l.Query != uint64(r.QueryID) || l.AdmitAt != int64(r.AdmitAt) || l.Injected != r.Injected ||
						(l.Injected > 0) != r.Flooded || l.HasResult != r.HasResult || l.FirstAt != int64(r.FirstAt) ||
						l.Cancelled != r.Cancelled {
						t.Fatalf("lifecycle %d = %+v, reference %+v", i, l, r)
					}
				}
				gs, ws := tracing.SummarizeSpans(s.Spans().Snapshot()), refSummarize(want)
				if gs == nil || ws == nil || *gs != *ws {
					t.Fatalf("summary %+v, reference %+v", gs, ws)
				}
				if ws.Cancelled == 0 || ws.FirstResults == 0 {
					t.Fatalf("reference saw no cancellations or no results: %+v", ws)
				}
			})
		}
	}
}

// refLifecycles schedules ws on s through hooks that feed a reference span
// log exactly what the simulation used to feed it. Queries of a static
// workload that never depart are cancelled every third one, so each
// workload exercises cancellation.
func refLifecycles(t *testing.T, s *Simulation, ws []workload.TimedQuery) *SpanLog {
	ref := NewSpanLog()
	now := func() time.Duration { return time.Duration(s.Engine().Now()) }
	s.Results().OnRows = func(ur core.UserRows) {
		if len(ur.Rows) > 0 {
			ref.FirstResult(int(ur.QueryID), now())
		}
	}
	s.Results().OnAggs = func(ua core.UserAgg) {
		if len(ua.Results) > 0 {
			ref.FirstResult(int(ua.QueryID), now())
		}
	}
	for i, w := range ws {
		q := w.Query
		s.Engine().Schedule(sim.Time(w.Arrive), func() {
			before := map[query.ID]bool{}
			if opt := s.Optimizer(); opt != nil {
				for _, sq := range opt.SyntheticQueries() {
					before[sq.ID] = true
				}
			}
			id, err := s.Post(q)
			if err != nil {
				t.Fatal(err)
			}
			injected := 1 // without tier 1 the user query is the network query
			if opt := s.Optimizer(); opt != nil {
				injected = 0
				for _, sq := range opt.SyntheticQueries() {
					if !before[sq.ID] {
						injected++
					}
				}
			}
			ref.Admit(int(id), now(), injected)
			if injected > 0 {
				ref.Flood(int(id), now())
			}
		})
		depart := w.Depart
		if depart == 0 && i%3 == 1 {
			depart = w.Arrive + 90*time.Second
		}
		if depart != 0 {
			id := q.ID
			s.Engine().Schedule(sim.Time(depart), func() {
				if s.Cancel(id) == nil {
					ref.Cancel(int(id))
				}
			})
		}
	}
	return ref
}
