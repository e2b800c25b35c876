package federation

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/topology"
)

// Two shards of three sensors each: shard 0 owns global ids 1..3, shard 1
// owns 4..6.
const (
	testShards = 2
	testSPN    = 3
)

// planText plans a query text as the router does: canonical form first.
func planText(text string) (*plan, error) {
	q, _, err := gateway.Canonicalize(query.MustParse(text))
	if err != nil {
		return nil, err
	}
	return planQuery(q, testShards, testSPN)
}

func mustPlan(t *testing.T, text string) *plan {
	t.Helper()
	p, err := planText(text)
	if err != nil {
		t.Fatalf("planQuery(%q): %v", text, err)
	}
	return p
}

func TestPlanSplitsNodeIDPredicate(t *testing.T) {
	// Global ids 2..5 intersect both shards: local 2..3 on shard 0,
	// local 1..2 on shard 1.
	p := mustPlan(t, "SELECT light WHERE nodeid >= 2 AND nodeid <= 5 EPOCH DURATION 8192ms")
	if got := p.shards; len(got) != 2 {
		t.Fatalf("planned shards = %v, want both", got)
	}
	want := [][2]float64{{2, 3}, {1, 2}}
	for i, sl := range p.slices {
		pred, ok := sl.q.PredFor(field.AttrNodeID)
		if !ok {
			t.Fatalf("slice %d lost its nodeid predicate", i)
		}
		if pred.Min != want[i][0] || pred.Max != want[i][1] {
			t.Fatalf("slice %d local range = [%g, %g], want %v", i, pred.Min, pred.Max, want[i])
		}
	}
}

func TestPlanDropsShardAndCoveringPredicate(t *testing.T) {
	// Global ids 4..6 are exactly shard 1; the local predicate covers the
	// whole shard so it is dropped for canonical dedup.
	p := mustPlan(t, "SELECT light WHERE nodeid >= 4 EPOCH DURATION 8192ms")
	if got := p.shards; len(got) != 1 || got[0] != 1 {
		t.Fatalf("planned shards = %v, want [1]", got)
	}
	if _, ok := p.slices[0].q.PredFor(field.AttrNodeID); ok {
		t.Fatal("covering local predicate not dropped")
	}
	// And the slice must equal the unpredicated whole-shard slice.
	full := mustPlan(t, "SELECT light EPOCH DURATION 8192ms")
	if p.slices[0].q.String() != full.slices[1].q.String() {
		t.Fatalf("covering slice %q != full-range slice %q",
			p.slices[0].q.String(), full.slices[1].q.String())
	}
}

func TestPlanRejectsOutOfRangeAndNodeIDAggs(t *testing.T) {
	if _, err := planText("SELECT light WHERE nodeid > 6 EPOCH DURATION 8192ms"); err == nil {
		t.Fatal("predicate past the last shard must not plan")
	}
	for _, text := range []string{
		"SELECT MAX(nodeid) EPOCH DURATION 8192ms",
		"SELECT AVG(light) GROUP BY nodeid EPOCH DURATION 8192ms",
	} {
		if _, err := planText(text); err == nil {
			t.Fatalf("%q must be rejected (shard-local ids)", text)
		}
	}
}

func TestPlanRewritesAvg(t *testing.T) {
	p := mustPlan(t, "SELECT AVG(light), SUM(light) EPOCH DURATION 8192ms")
	up := p.slices[0].q.Aggs
	// Upstream: SUM(light) (shared by AVG rewrite and the explicit SUM)
	// and COUNT(light); no AVG.
	if len(up) != 2 {
		t.Fatalf("upstream aggs = %v, want SUM+COUNT", up)
	}
	for _, a := range up {
		if a.Op == query.Avg {
			t.Fatalf("upstream still carries AVG: %v", up)
		}
	}
}

func TestEpochAccRecombines(t *testing.T) {
	p := mustPlan(t, "SELECT AVG(light), MIN(light), MAX(light), COUNT(light) EPOCH DURATION 8192ms")
	light := p.q.Aggs[0].Attr
	sum := query.Agg{Op: query.Sum, Attr: light}
	cnt := query.Agg{Op: query.Count, Attr: light}
	mn := query.Agg{Op: query.Min, Attr: light}
	mx := query.Agg{Op: query.Max, Attr: light}

	at := sim.Time(8192e6)
	acc := &tier.Epoch{At: at}
	// Shard 0: sum 30 over 3 readings, min 5, max 15.
	acc.Add(0, &gateway.Update{Aggs: []query.AggResult{
		{Time: at, Agg: sum, Value: 30}, {Time: at, Agg: cnt, Value: 3},
		{Time: at, Agg: mn, Value: 5}, {Time: at, Agg: mx, Value: 15},
	}})
	// Shard 1: sum 50 over 2 readings, min 20, max 30.
	acc.Add(1, &gateway.Update{Aggs: []query.AggResult{
		{Time: at, Agg: sum, Value: 50}, {Time: at, Agg: cnt, Value: 2},
		{Time: at, Agg: mn, Value: 20}, {Time: at, Agg: mx, Value: 30},
	}})

	out := acc.Finish(at, p.q.Aggs)
	if len(out) != 4 {
		t.Fatalf("finish returned %d results, want 4", len(out))
	}
	wantByOp := map[query.AggOp]float64{
		query.Avg: 80.0 / 5.0, query.Min: 5, query.Max: 30, query.Count: 5,
	}
	for _, r := range out {
		if r.Empty {
			t.Fatalf("%v unexpectedly empty", r.Agg)
		}
		if want := wantByOp[r.Agg.Op]; math.Abs(r.Value-want) > 1e-9 {
			t.Fatalf("%v = %g, want %g", r.Agg, r.Value, want)
		}
		if r.Time != at {
			t.Fatalf("%v at %v, want %v", r.Agg, r.Time, at)
		}
	}
}

func TestEpochAccEmptyPartials(t *testing.T) {
	p := mustPlan(t, "SELECT AVG(light) EPOCH DURATION 8192ms")
	light := p.q.Aggs[0].Attr
	sum := query.Agg{Op: query.Sum, Attr: light}
	cnt := query.Agg{Op: query.Count, Attr: light}

	acc := &tier.Epoch{}
	acc.Add(0, &gateway.Update{Aggs: []query.AggResult{
		{Agg: sum, Empty: true}, {Agg: cnt, Empty: true},
	}})
	out := acc.Finish(0, p.q.Aggs)
	if len(out) != 1 || !out[0].Empty {
		t.Fatalf("all-empty partials must recombine to one empty AVG, got %v", out)
	}

	// COUNT=0 from every shard also yields an empty AVG (no division).
	acc2 := &tier.Epoch{}
	acc2.Add(0, &gateway.Update{Aggs: []query.AggResult{
		{Agg: sum, Value: 0}, {Agg: cnt, Value: 0},
	}})
	out2 := acc2.Finish(0, p.q.Aggs)
	if len(out2) != 1 || !out2[0].Empty {
		t.Fatalf("zero-count AVG must be empty, got %v", out2)
	}
}

func TestTranslateRows(t *testing.T) {
	rows := []query.Row{
		{Node: 2, Values: field.ValuesOf(map[field.Attr]float64{field.AttrNodeID: 2})},
		{Node: 3, Values: field.ValuesOf(map[field.Attr]float64{field.AttrNodeID: 3})},
	}
	out := translateRows(nil, rows, 1, testSPN)
	if out[0].Node != topology.NodeID(5) || out[1].Node != topology.NodeID(6) {
		t.Fatalf("shard-1 nodes = %d, %d, want 5, 6", out[0].Node, out[1].Node)
	}
	nodeid := func(r query.Row) float64 {
		v, _ := r.Values.Get(field.AttrNodeID)
		return v
	}
	if nodeid(out[0]) != 5 || nodeid(out[1]) != 6 {
		t.Fatalf("projected nodeid not translated: %v", out)
	}
	// The source rows must be untouched (rows are copied by assignment).
	if nodeid(rows[0]) != 2 {
		t.Fatal("translateRows mutated its input")
	}
}
