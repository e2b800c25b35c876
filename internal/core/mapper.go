package core

import (
	"sort"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

// UserRows is one epoch of acquisition results delivered to a user query
// after mapping.
type UserRows struct {
	QueryID query.ID
	Time    sim.Time
	Rows    []query.Row
}

// UserAgg is one epoch of aggregation results delivered to a user query
// after mapping.
type UserAgg struct {
	QueryID query.ID
	Time    sim.Time
	Results []query.AggResult
}

// memberPlan is what the mapper needs of one contributor of a synthetic
// query, compiled when the contributor set changes rather than re-derived
// on every result epoch.
type memberPlan struct {
	// every is the member's report period: it receives results at the
	// instants divisible by it (epochs are aligned, §3.2.1; windowed queries
	// report every Slide epochs).
	every sim.Time
	// resid holds the member's predicates the synthetic query does not
	// already apply identically in-network; only these are re-applied at
	// the base station (the rows arrive pre-filtered on the others, and the
	// attribute may not have been acquired).
	resid []query.Predicate
	// keep is the projection mask of an acquisition member's rows.
	keep field.AttrSet
	// agg marks a member whose aggregates are calculated from the rows.
	agg bool
}

// compilePlan derives the mapping plan of member uq of synthetic query syn.
func compilePlan(syn, uq query.Query) memberPlan {
	p := memberPlan{
		every: sim.Time(uq.ReportEvery()),
		keep:  field.SetOf(uq.RowAttrs()),
		agg:   uq.IsAggregation(),
	}
	for _, pr := range uq.Preds {
		if sp, ok := syn.PredFor(pr.Attr); ok && sp == pr {
			continue
		}
		p.resid = append(p.resid, pr)
	}
	return p
}

// fires reports whether the member receives results at t.
func (p *memberPlan) fires(t sim.Time) bool { return p.every > 0 && t%p.every == 0 }

// MapAcquisition derives user results from one epoch of an acquisition
// synthetic query's stream ("corresponding results for user queries can be
// easily obtained through mapping and calculation", §1). For every user
// query in the synthetic query's from-list whose epoch fires at t:
//
//   - an acquisition user query receives the rows re-filtered by its
//     residual predicates and projected to its attribute list;
//   - an aggregation user query receives its aggregates computed over the
//     re-filtered rows.
//
// It is one pass over the members' compiled plans, in ascending member ID,
// allocating one row slice per acquisition member.
func (o *Optimizer) MapAcquisition(synID query.ID, t sim.Time, rows []query.Row) (acq []UserRows, agg []UserAgg) {
	s := o.find(synID)
	if s == nil {
		return nil, nil
	}
	for _, u := range s.members {
		p, uq := &u.plan, &u.q
		if !p.fires(t) {
			continue
		}
		if p.agg {
			agg = append(agg, UserAgg{QueryID: uq.ID, Time: t, Results: aggregateRows(uq, p.resid, t, rows)})
			continue
		}
		n := len(rows)
		if len(p.resid) > 0 {
			n = 0
			for j := range rows {
				if query.MatchAll(p.resid, &rows[j].Values) {
					n++
				}
			}
		}
		out := make([]query.Row, 0, n)
		for j := range rows {
			r := &rows[j]
			if query.MatchAll(p.resid, &r.Values) {
				out = append(out, query.Row{Node: r.Node, Time: r.Time, Values: r.Values.Only(p.keep)})
			}
		}
		acq = append(acq, UserRows{QueryID: uq.ID, Time: t, Rows: out})
	}
	return acq, agg
}

// MapAggregation derives user results from one epoch of an aggregation
// synthetic query's stream. Every contributor shares the synthetic query's
// predicates (a §3.1.2 correctness constraint), so mapping is a projection
// of the requested aggregates.
func (o *Optimizer) MapAggregation(synID query.ID, t sim.Time, states []query.AggState) []UserAgg {
	s := o.find(synID)
	if s == nil {
		return nil
	}
	out := make([]UserAgg, 0, len(s.members))
	for _, u := range s.members {
		if !u.plan.fires(t) {
			continue
		}
		out = append(out, UserAgg{QueryID: u.q.ID, Time: t, Results: AggregateStates(u.q, t, states)})
	}
	return out
}

// AggregateStates projects a set of (possibly grouped) partial aggregate
// states onto one user query's result tuples. For ungrouped queries every
// requested aggregate yields exactly one tuple (Empty if no node matched);
// for GROUP BY queries each present bucket yields one tuple per aggregate,
// sorted by bucket.
func AggregateStates(uq query.Query, t sim.Time, states []query.AggState) []query.AggResult {
	results := make([]query.AggResult, 0, len(uq.Aggs))
	for _, a := range uq.Aggs {
		if uq.GroupBy == nil {
			res := query.AggResult{Time: t, Agg: a, Empty: true}
			for i := range states {
				if states[i].Agg == a {
					v, okv := states[i].Result()
					res.Value, res.Empty = v, !okv
					break
				}
			}
			results = append(results, res)
			continue
		}
		var matching []query.AggState
		for _, st := range states {
			if st.Agg == a {
				matching = append(matching, st)
			}
		}
		sort.Slice(matching, func(i, j int) bool { return matching[i].Group < matching[j].Group })
		for _, st := range matching {
			v, okv := st.Result()
			results = append(results, query.AggResult{Time: t, Agg: a, Group: st.Group, Value: v, Empty: !okv})
		}
	}
	return results
}

// aggregateRows computes a user query's (possibly grouped) aggregates from
// the raw rows satisfying resid — the base-station "calculation" path when
// an aggregation query is served by an acquisition synthetic query.
func aggregateRows(uq *query.Query, resid []query.Predicate, t sim.Time, rows []query.Row) []query.AggResult {
	var states []query.AggState
	for i := range rows {
		vals := &rows[i].Values
		if !query.MatchAll(resid, vals) {
			continue
		}
		var group int64
		if uq.GroupBy != nil {
			gv, ok := vals.Get(uq.GroupBy.Attr)
			if !ok {
				continue
			}
			group = uq.GroupBy.Key(gv)
		}
		for _, a := range uq.Aggs {
			v, ok := vals.Get(a.Attr)
			if !ok {
				continue
			}
			st := query.NewGroupedAggState(a, group)
			st.Add(v)
			states = query.FoldState(states, st)
		}
	}
	return AggregateStates(*uq, t, states)
}
