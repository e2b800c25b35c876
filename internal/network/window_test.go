package network

import (
	"math"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/topology"
)

// Windowed aggregates end to end: every node's reported WINAVG matches the
// average recomputed from the field at its own sample instants.
func TestWindowedEndToEnd(t *testing.T) {
	topo := grid4(t)
	for _, scheme := range []Scheme{Baseline, TTMQO} {
		s := newSim(t, topo, scheme, 14)
		q := query.MustParse("SELECT WINAVG(light, 4) EPOCH DURATION 4096")
		q.ID = 1
		if _, err := s.Post(q); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * time.Second)
		epochs := s.Results().RowsFor(1)
		if len(epochs) < 8 {
			t.Fatalf("%v: %d epochs", scheme, len(epochs))
		}
		// Check the last epoch: full windows everywhere.
		last := epochs[len(epochs)-1]
		if len(last.Rows) != topo.Size()-1 {
			t.Fatalf("%v: %d rows, want %d", scheme, len(last.Rows), topo.Size()-1)
		}
		for _, r := range last.Rows {
			var want float64
			for k := 0; k < 4; k++ {
				at := last.Time - sim4096(k)
				want += s.source.Reading(r.Node, field.AttrLight, at)
			}
			want /= 4
			got, _ := r.Values.Get(field.AttrLight)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v node %d: WINAVG = %f, want %f", scheme, r.Node, got, want)
			}
		}
	}
}

func sim4096(k int) (d time.Duration) {
	return time.Duration(k) * 4096 * time.Millisecond
}

// Slide > 1: reports every Slide epochs only.
func TestWindowedSlideSchedule(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, TTMQO, 15)
	q := query.MustParse("SELECT WINMAX(temp, 4, 3) EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Minute)
	epochs := s.Results().RowsFor(1)
	if len(epochs) < 3 {
		t.Fatalf("%d epochs", len(epochs))
	}
	re := 3 * 4096 * time.Millisecond
	for i, ep := range epochs {
		if time.Duration(ep.Time)%re != 0 {
			t.Fatalf("report %d at %v not on the slide schedule %v", i, ep.Time, re)
		}
		if i > 0 && time.Duration(ep.Time-epochs[i-1].Time) != re {
			t.Fatalf("report spacing %v, want %v", time.Duration(ep.Time-epochs[i-1].Time), re)
		}
	}
	// Message volume reflects the slide: result traffic is ~1/3 of a
	// slide-1 query's.
	s1 := newSim(t, topo, TTMQO, 15)
	q1 := query.MustParse("SELECT WINMAX(temp, 4) EPOCH DURATION 4096")
	q1.ID = 1
	if _, err := s1.Post(q1); err != nil {
		t.Fatal(err)
	}
	s1.Run(2 * time.Minute)
	r3 := s.Metrics().MessagesOf("result")
	r1 := s1.Metrics().MessagesOf("result")
	if r3 >= r1/2 {
		t.Fatalf("slide-3 traffic %d vs slide-1 %d: expected ≈3x reduction", r3, r1)
	}
}

// Two compatible windowed queries merge at tier 1 and both receive results.
func TestWindowedTier1Merge(t *testing.T) {
	s := newSim(t, grid4(t), TTMQO, 16)
	q1 := query.MustParse("SELECT WINAVG(light, 4, 2) WHERE temp > 10 EPOCH DURATION 4096")
	q1.ID = 1
	q2 := query.MustParse("SELECT WINMAX(humidity, 8, 4) WHERE temp > 10 EPOCH DURATION 4096")
	q2.ID = 2
	if _, err := s.Post(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Post(q2); err != nil {
		t.Fatal(err)
	}
	if s.Optimizer().SyntheticCount() != 1 {
		t.Fatalf("synthetic count = %d, want 1", s.Optimizer().SyntheticCount())
	}
	syn := s.Optimizer().SyntheticQueries()[0]
	if !syn.IsWindowed() || len(syn.Wins) != 2 {
		t.Fatalf("synthetic = %v", syn)
	}
	s.Run(3 * time.Minute)
	n1, n2 := s.Results().RowEpochs(1), s.Results().RowEpochs(2)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("epochs: q1=%d q2=%d", n1, n2)
	}
	// q1 reports twice as often as q2 (slides 2 vs 4 on the same epoch).
	if n1 < 2*n2-2 || n1 > 2*n2+2 {
		t.Fatalf("slide decimation off: q1=%d q2=%d", n1, n2)
	}
	// q2's rows carry only its own attribute.
	for _, ep := range s.Results().RowsFor(2) {
		for _, r := range ep.Rows {
			if _, ok := r.Values.Get(field.AttrLight); ok {
				t.Fatal("q2 must not see q1's window values")
			}
			if _, ok := r.Values.Get(field.AttrHumidity); !ok {
				t.Fatal("q2 missing its window value")
			}
		}
	}
}

// A windowed query's predicate gates reporting per node.
func TestWindowedPredicateGatesReports(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, Baseline, 17)
	// nodeid <= 5: only nodes 1..5 report.
	q := query.MustParse("SELECT WINAVG(light, 2) WHERE nodeid <= 5 EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Minute)
	for _, ep := range s.Results().RowsFor(1) {
		if len(ep.Rows) != 5 {
			t.Fatalf("rows = %d, want 5", len(ep.Rows))
		}
		for _, r := range ep.Rows {
			if r.Node > 5 {
				t.Fatalf("node %d should be filtered", r.Node)
			}
		}
	}
}

// SRT prunes windowed node-id queries too (they ride the same machinery).
func TestWindowedSRTPruning(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, Baseline, 18)
	q := query.MustParse("SELECT WINAVG(light, 2) WHERE nodeid = 1 EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Minute)
	// Some node with a non-overlapping subtree must have pruned the flood.
	pruned := 0
	for i := 1; i < topo.Size(); i++ {
		if len(s.Node(topology.NodeID(i)).Queries()) == 0 {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("expected SRT pruning")
	}
	for _, ep := range s.Results().RowsFor(1) {
		if len(ep.Rows) != 1 || ep.Rows[0].Node != 1 {
			t.Fatalf("rows = %+v", ep.Rows)
		}
	}
}
