package core

import (
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

func TestMapAcquisitionFilterAndProject(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	mustInsert(t, o, 2, "SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	syn, _ := o.SyntheticFor(1)

	rows := []query.Row{
		{Node: 3, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 150, field.AttrTemp: 20})},
		{Node: 4, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 500, field.AttrTemp: 30})},
	}

	// At t=4096ms both queries fire.
	at := sim.Time(4096 * time.Millisecond)
	acq, agg := o.MapAcquisition(syn.ID, at, rows)
	if len(agg) != 0 {
		t.Fatalf("unexpected aggregation results: %+v", agg)
	}
	if len(acq) != 2 {
		t.Fatalf("user results = %d, want 2", len(acq))
	}
	byID := map[query.ID]UserRows{}
	for _, r := range acq {
		byID[r.QueryID] = r
	}
	// Query 1 sees both rows with both attributes.
	if got := byID[1]; len(got.Rows) != 2 || got.Rows[0].Values.Len() != 2 {
		t.Fatalf("query 1 rows = %+v", got.Rows)
	}
	// Query 2 sees only the row with light in [100,300], projected to light.
	q2 := byID[2]
	if len(q2.Rows) != 1 || q2.Rows[0].Node != 3 {
		t.Fatalf("query 2 rows = %+v", q2.Rows)
	}
	if _, hasTemp := q2.Rows[0].Values.Get(field.AttrTemp); hasTemp {
		t.Fatal("query 2 must not see temp")
	}

	// At t=2048ms only query 1 fires (query 2's epoch is 4096ms).
	acq, _ = o.MapAcquisition(syn.ID, sim.Time(2048*time.Millisecond), rows)
	if len(acq) != 1 || acq[0].QueryID != 1 {
		t.Fatalf("misaligned epoch mapping: %+v", acq)
	}
}

func TestMapAcquisitionDerivesAggregation(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	// An acquisition query covering an aggregation query: MAX computed at
	// the base station.
	mustInsert(t, o, 1, "SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	mustInsert(t, o, 2, "SELECT MAX(light) WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	if o.SyntheticCount() != 1 {
		t.Fatalf("aggregation should be covered: %d synthetic queries", o.SyntheticCount())
	}
	syn, _ := o.SyntheticFor(2)
	rows := []query.Row{
		{Node: 3, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 150, field.AttrTemp: 20})},
		{Node: 4, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 250, field.AttrTemp: 30})},
		{Node: 5, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 500, field.AttrTemp: 10})},
	}
	_, agg := o.MapAcquisition(syn.ID, sim.Time(4096*time.Millisecond), rows)
	if len(agg) != 1 || agg[0].QueryID != 2 {
		t.Fatalf("agg results = %+v", agg)
	}
	r := agg[0].Results[0]
	if r.Empty || r.Value != 250 {
		t.Fatalf("MAX over filtered rows = %+v, want 250", r)
	}
}

func TestMapAcquisitionEmptyAggregate(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT light EPOCH DURATION 2048")
	mustInsert(t, o, 2, "SELECT MIN(light) WHERE light >= 900 EPOCH DURATION 2048")
	syn, _ := o.SyntheticFor(2)
	rows := []query.Row{
		{Node: 3, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 100})},
	}
	_, agg := o.MapAcquisition(syn.ID, 0, rows)
	if len(agg) != 1 || !agg[0].Results[0].Empty {
		t.Fatalf("expected empty aggregate, got %+v", agg)
	}
}

func TestMapAggregation(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	mustInsert(t, o, 2, "SELECT MIN(light) WHERE temp > 20 EPOCH DURATION 8192")
	syn, _ := o.SyntheticFor(1)

	maxState := query.NewAggState(query.Agg{Op: query.Max, Attr: field.AttrLight})
	maxState.Add(700)
	minState := query.NewAggState(query.Agg{Op: query.Min, Attr: field.AttrLight})
	minState.Add(700)
	minState.Add(300)
	states := []query.AggState{maxState, minState}

	// t = 8192ms: both fire.
	out := o.MapAggregation(syn.ID, sim.Time(8192*time.Millisecond), states)
	if len(out) != 2 {
		t.Fatalf("results = %+v", out)
	}
	for _, ua := range out {
		switch ua.QueryID {
		case 1:
			if ua.Results[0].Value != 700 {
				t.Fatalf("MAX = %+v", ua.Results[0])
			}
		case 2:
			if ua.Results[0].Value != 300 {
				t.Fatalf("MIN = %+v", ua.Results[0])
			}
		}
	}

	// t = 4096ms: only query 1.
	out = o.MapAggregation(syn.ID, sim.Time(4096*time.Millisecond), states)
	if len(out) != 1 || out[0].QueryID != 1 {
		t.Fatalf("misaligned mapping: %+v", out)
	}
}

func TestMapAggregationMissingState(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	syn, _ := o.SyntheticFor(1)
	out := o.MapAggregation(syn.ID, 0, nil)
	if len(out) != 1 || !out[0].Results[0].Empty {
		t.Fatalf("missing state should map to Empty: %+v", out)
	}
}

func TestMapUnknownSynthetic(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	if acq, agg := o.MapAcquisition(12345, 0, nil); acq != nil || agg != nil {
		t.Fatal("unknown synthetic must map to nothing")
	}
	if out := o.MapAggregation(12345, 0, nil); out != nil {
		t.Fatal("unknown synthetic must map to nothing")
	}
}

func TestAggregateRowsGrouped(t *testing.T) {
	uq := query.MustParse("SELECT MAX(light), COUNT(light) GROUP BY temp BUCKET 10 EPOCH DURATION 4096")
	rows := []query.Row{
		{Node: 1, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 100, field.AttrTemp: 5})},
		{Node: 2, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 300, field.AttrTemp: 9})},
		{Node: 3, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 200, field.AttrTemp: 25})},
	}
	results := aggregateRows(&uq, nil, 0, rows)
	// Two groups (0 and 2), two aggregates each → 4 tuples.
	if len(results) != 4 {
		t.Fatalf("results = %+v", results)
	}
	byKey := map[string]float64{}
	for _, r := range results {
		byKey[r.Agg.String()+string(rune('0'+r.Group))] = r.Value
	}
	if byKey["MAX(light)0"] != 300 || byKey["MAX(light)2"] != 200 {
		t.Fatalf("MAX wrong: %+v", byKey)
	}
	if byKey["COUNT(light)0"] != 2 || byKey["COUNT(light)2"] != 1 {
		t.Fatalf("COUNT wrong: %+v", byKey)
	}
}

func TestAggregateRowsSkipsRowsMissingGroupAttr(t *testing.T) {
	uq := query.MustParse("SELECT MAX(light) GROUP BY temp EPOCH DURATION 4096")
	rows := []query.Row{
		{Node: 1, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 100})}, // no temp
	}
	if got := aggregateRows(&uq, nil, 0, rows); len(got) != 0 {
		t.Fatalf("rows without the group attribute must be skipped: %+v", got)
	}
}

func TestAggregateStatesUngroupedEmpty(t *testing.T) {
	uq := query.MustParse("SELECT MIN(light) EPOCH DURATION 4096")
	got := AggregateStates(uq, 0, nil)
	if len(got) != 1 || !got[0].Empty {
		t.Fatalf("ungrouped empty epoch must yield one Empty tuple: %+v", got)
	}
	// Grouped queries yield nothing for empty epochs (absent buckets are
	// meaningful).
	uqG := query.MustParse("SELECT MIN(light) GROUP BY temp EPOCH DURATION 4096")
	if got := AggregateStates(uqG, 0, nil); len(got) != 0 {
		t.Fatalf("grouped empty epoch must yield nothing: %+v", got)
	}
}
