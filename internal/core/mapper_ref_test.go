package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The reference mapper: the map-per-row MapAcquisition this package shipped
// before rows went flat and the mapping plan was compiled, kept here — as
// internal/sim keeps container/heap — so the compiled one-pass mapper is
// checked against an implementation that re-derives everything per epoch.

type refRow struct {
	Node   topology.NodeID
	Time   sim.Time
	Values map[field.Attr]float64
}

type refUserRows struct {
	QueryID query.ID
	Time    sim.Time
	Rows    []refRow
}

func refMapAcquisition(syn query.Query, from map[query.ID]query.Query, t sim.Time, rows []refRow) (acq []refUserRows, agg []UserAgg) {
	users := make([]query.Query, 0, len(from))
	for _, uq := range from {
		users = append(users, uq)
	}
	sort.Slice(users, func(i, j int) bool { return users[i].ID < users[j].ID })
	for _, uq := range users {
		re := uq.ReportEvery()
		if re <= 0 || t%sim.Time(re) != 0 {
			continue
		}
		matched := refFilterRows(syn, uq, rows)
		if uq.IsAggregation() {
			agg = append(agg, UserAgg{QueryID: uq.ID, Time: t, Results: refAggregateRows(uq, t, matched)})
			continue
		}
		rowAttrs := uq.RowAttrs()
		projected := make([]refRow, 0, len(matched))
		for _, r := range matched {
			vals := make(map[field.Attr]float64, len(rowAttrs))
			for _, a := range rowAttrs {
				if v, ok := r.Values[a]; ok {
					vals[a] = v
				}
			}
			projected = append(projected, refRow{Node: r.Node, Time: r.Time, Values: vals})
		}
		acq = append(acq, refUserRows{QueryID: uq.ID, Time: t, Rows: projected})
	}
	return acq, agg
}

func refFilterRows(syn, uq query.Query, rows []refRow) []refRow {
	var preds []query.Predicate
	for _, p := range uq.Preds {
		if sp, ok := syn.PredFor(p.Attr); ok && sp == p {
			continue
		}
		preds = append(preds, p)
	}
	if len(preds) == 0 {
		return rows
	}
	out := make([]refRow, 0, len(rows))
	for _, r := range rows {
		ok := true
		for _, p := range preds {
			if v, has := r.Values[p.Attr]; !has || !p.Matches(v) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

func refAggregateRows(uq query.Query, t sim.Time, rows []refRow) []query.AggResult {
	var states []query.AggState
	for _, r := range rows {
		var group int64
		if uq.GroupBy != nil {
			gv, ok := r.Values[uq.GroupBy.Attr]
			if !ok {
				continue
			}
			group = uq.GroupBy.Key(gv)
		}
		for _, a := range uq.Aggs {
			v, ok := r.Values[a.Attr]
			if !ok {
				continue
			}
			st := query.NewGroupedAggState(a, group)
			st.Add(v)
			states = query.FoldState(states, st)
		}
	}
	return AggregateStates(uq, t, states)
}

// mapperQueries draws a member mix the §4.3 generator alone does not reach:
// GROUP BY aggregates (derived from rows when an acquisition synthetic query
// serves them) and windowed queries (their values ride acquisition rows, and
// they report every Slide epochs).
func mapperQueries(rng *sim.Rand, n int) []query.Query {
	qs := make([]query.Query, 0, n)
	for len(qs) < n {
		seed := uint32(rng.Intn(1 << 30))
		var q query.Query
		switch r := rng.Float64(); {
		case r < 0.05:
			// A broad acquisition that covers most of what follows it.
			q = query.MustParse("SELECT nodeid, light, temp, humidity EPOCH DURATION 2048ms")
		case r < 0.3:
			// Overlapping light ranges on one epoch: these merge by
			// widening, so a termination can shrink the requirement.
			lo := 100 + rng.Intn(300)
			q = query.MustParse(fmt.Sprintf("SELECT light WHERE light >= %d AND light <= %d EPOCH DURATION 8192ms",
				lo, lo+150+rng.Intn(200)))
		case r < 0.45:
			q = genQueryFromSeed(seed, false)
		case r < 0.7:
			q = genQueryFromSeed(seed, true)
		case r < 0.85:
			q = genQueryFromSeed(seed, true)
			q.GroupBy = &query.GroupBy{Attr: field.AttrTemp, Width: float64(5 + rng.Intn(20))}
		default:
			q = query.MustParse(fmt.Sprintf("SELECT WINAVG(light, %d, %d) WHERE temp >= %d EPOCH DURATION 2048ms",
				2+rng.Intn(3), 1+rng.Intn(3), rng.Intn(3)*10))
		}
		q.ID = query.ID(len(qs) + 1)
		qs = append(qs, q)
	}
	return qs
}

// synthRows draws one epoch of syn's stream: rows in ascending origin whose
// values sit around the generator's predicate ranges, each acquired
// attribute missing now and then.
func synthRows(rng *sim.Rand, syn query.Query, t sim.Time, n int) ([]query.Row, []refRow) {
	flat := make([]query.Row, 0, n)
	ref := make([]refRow, 0, n)
	for node := 1; node <= n; node++ {
		var vs field.Values
		m := map[field.Attr]float64{}
		for _, a := range syn.RowAttrs() {
			if rng.Float64() < 0.1 {
				continue
			}
			v := float64(rng.Intn(1100)) - 50 + rng.Float64()
			vs.Set(a, v)
			m[a] = v
		}
		flat = append(flat, query.Row{Node: topology.NodeID(node), Time: t, Values: vs})
		ref = append(ref, refRow{Node: topology.NodeID(node), Time: t, Values: m})
	}
	return flat, ref
}

// checkMapperAgainstReference maps a few epochs of every running acquisition
// synthetic query through the compiled mapper and the reference.
func checkMapperAgainstReference(t *testing.T, o *Optimizer, rng *sim.Rand) {
	t.Helper()
	for _, syn := range o.SyntheticQueries() {
		if syn.IsAggregation() {
			continue
		}
		from := map[query.ID]query.Query{}
		for _, id := range o.FromList(syn.ID) {
			from[id] = o.users[id].q
		}
		for k := 1; k <= 6; k++ {
			at := sim.Time(k) * sim.Time(query.MinEpoch)
			flat, ref := synthRows(rng, syn, at, rng.Intn(24))
			gotAcq, gotAgg := o.MapAcquisition(syn.ID, at, flat)
			wantAcq, wantAgg := refMapAcquisition(syn, from, at, ref)
			if !reflect.DeepEqual(gotAgg, wantAgg) {
				t.Fatalf("syn %v t=%v: aggregates\n got  %+v\n want %+v", syn, at, gotAgg, wantAgg)
			}
			if len(gotAcq) != len(wantAcq) {
				t.Fatalf("syn %v t=%v: %d row deliveries, want %d", syn, at, len(gotAcq), len(wantAcq))
			}
			for i, want := range wantAcq {
				got := gotAcq[i]
				if got.QueryID != want.QueryID || got.Time != want.Time || len(got.Rows) != len(want.Rows) || got.Rows == nil {
					t.Fatalf("syn %v t=%v user %d: got %+v, want %+v", syn, at, want.QueryID, got, want)
				}
				for j, wr := range want.Rows {
					gr := got.Rows[j]
					vals := map[field.Attr]float64{}
					gr.Values.Each(func(a field.Attr, v float64) { vals[a] = v })
					if gr.Node != wr.Node || gr.Time != wr.Time || !reflect.DeepEqual(vals, wr.Values) {
						t.Fatalf("syn %v t=%v user %d row %d: got %+v, want %+v", syn, at, want.QueryID, j, gr, wr)
					}
				}
			}
		}
	}
}

// The compiled mapper delivers exactly what the reference does — on random
// member sets with GROUP BY and windowed members and rows with missing
// attributes, and again after terminations the α rule hid from the network
// (the synthetic query then requests more than its remaining members need,
// and the plan was recompiled for them).
func TestCompiledMapperMatchesReference(t *testing.T) {
	// What the random member sets reached, so the test cannot pass by
	// generating only the easy shapes.
	var stale, groupedFromRows, sharedWindows, refiltered int
	census := func(o *Optimizer) {
		for _, s := range o.syn {
			if !Synthesize(o.queries(s.members)).Equal(s.q) {
				stale++
			}
			for _, m := range s.members {
				if !s.q.IsAggregation() && m.q.GroupBy != nil {
					groupedFromRows++
				}
				if m.q.IsWindowed() && len(s.members) > 1 {
					sharedWindows++
				}
				if len(m.plan.resid) > 0 {
					refiltered++
				}
			}
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := sim.NewRand(seed)
		o := newTestOptimizerQuick(100) // α = 100 keeps every stranded synthetic query with a benefit
		qs := mapperQueries(rng, 12+rng.Intn(12))
		for _, q := range qs {
			if _, err := o.Insert(q); err != nil {
				t.Fatal(err)
			}
		}
		census(o)
		checkMapperAgainstReference(t, o, rng)
		for _, i := range rng.Perm(len(qs))[:len(qs)/2] {
			if _, err := o.Terminate(qs[i].ID); err != nil {
				t.Fatal(err)
			}
			census(o)
			checkMapperAgainstReference(t, o, rng)
		}
	}
	if stale == 0 || groupedFromRows == 0 || sharedWindows == 0 || refiltered == 0 {
		t.Fatalf("generator missed a shape: α-kept synthetics %d, GROUP BY members served from rows %d, windowed members sharing %d, re-filtered members %d",
			stale, groupedFromRows, sharedWindows, refiltered)
	}
}
