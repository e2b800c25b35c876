// Package core implements the paper's primary contribution: the two-tier
// multiple query optimizer. This file and optimizer.go implement tier 1, the
// base-station optimization of §3.1 — cost-guided rewriting of user queries
// into a smaller set of synthetic queries (Algorithm 1), adaptive handling
// of query termination (Algorithm 2), and the bookkeeping that lets the base
// station derive every user query's results from the synthetic streams
// (mapper.go).
package core

import (
	"repro/internal/field"
	"repro/internal/query"
)

// Synthesize returns the canonical synthetic query serving a set of user
// queries in canonical form (query.Normalize, as the optimizer admits them):
// the exact data requirement of the set, independent of the order in which
// the set was assembled.
//
// If every query is an aggregation query (they then share identical
// predicates, enforced by query.Rewritable), the result aggregates the union
// of their agg lists at the GCD of their epochs. Otherwise the result is an
// acquisition query whose projection is the union of all queries'
// projections and aggregate inputs, plus the predicate attributes needed for
// base-station re-filtering: attribute A is acquired for a query whose
// predicate on A differs from the merged predicate (identically filtered
// attributes arrive pre-filtered and need no raw value). The merged
// predicate list is the n-ary conjunctive-superset union and the epoch is
// the GCD.
//
// This is the n-ary closure of the paper's pairwise merge (§3.1.2: unions of
// attributes and predicates, GCD of epochs), the one definition of a
// synthetic query in the tree, with the re-filter attributes computed
// exactly rather than pairwise-conservatively;
// the paper's count fields (§3.1.1) are realized by recomputing this
// canonical form from the surviving contributors (see DESIGN.md).
func Synthesize(qs []query.Query) query.Query {
	var r requirement
	return r.of(qs).Clone()
}

// attrSlots bounds the attribute and operator codes a requirement is built
// over. The declared ones are well inside it (a field.AttrSet has one bit per
// attribute and a field.Values one slot per declared one), and admission
// refuses any other: query.Validate rejects an undeclared code.
const attrSlots = 8

// requirement is what a synthesis builds its lists in. The query of returns
// lives in it, so a requirement that is only priced or compared (benefitRate,
// Terminate's shrink test) is never allocated.
type requirement struct {
	attrs [attrSlots]field.Attr
	preds [attrSlots]query.Predicate
	aggs  [attrSlots * attrSlots]query.Agg
}

// of is Synthesize into r.
func (r *requirement) of(qs []query.Query) query.Query {
	if len(qs) == 0 {
		return query.Query{}
	}
	allWin := true
	allAgg := true
	for i := range qs {
		if !qs[i].IsAggregation() {
			allAgg = false
		}
		if !qs[i].IsWindowed() {
			allWin = false
		}
	}
	// The pure-aggregation merge is only sound when every member shares one
	// predicate list and group spec. Pairwise Rewritable guarantees that for
	// sets assembled agg-with-agg — but a synthetic query can end up serving
	// only aggregation members through another route: an acquisition
	// synthetic whose acquisition members terminated while α kept it alive.
	// Recombining those members must NOT silently adopt the first member's
	// predicates; fall back to the acquisition form, which covers any mix.
	for i := 1; i < len(qs) && allAgg; i++ {
		allAgg = query.PredsEqual(qs[0].Preds, qs[i].Preds) && qs[0].GroupBy.Equal(qs[i].GroupBy)
	}
	if allWin {
		// Windowed queries only ever merge with compatible windowed queries
		// (query.Rewritable): identical predicates and epoch; the merged
		// query reports on the GCD slide schedule.
		merged := qs[0].Clone()
		merged.ID = 0
		for _, q := range qs[1:] {
			merged.Wins = append(merged.Wins, q.Wins...)
		}
		slide := merged.Wins[0].Slide
		for _, w := range merged.Wins[1:] {
			slide = gcdSlides(slide, w.Slide)
		}
		for i := range merged.Wins {
			merged.Wins[i].Slide = slide
		}
		return merged.Normalize()
	}
	epoch := qs[0].Epoch
	for i := 1; i < len(qs); i++ {
		epoch = query.EpochGCD(epoch, qs[i].Epoch)
	}
	if allAgg {
		var ops [attrSlots]uint8 // per attribute, one bit per requested operator
		for i := range qs {
			for _, a := range qs[i].Aggs {
				ops[a.Attr] |= 1 << a.Op
			}
		}
		n := 0
		for attr, set := range ops {
			for op := 0; set != 0; op, set = op+1, set>>1 {
				if set&1 != 0 {
					r.aggs[n] = query.Agg{Op: query.AggOp(op), Attr: field.Attr(attr)}
					n++
				}
			}
		}
		return query.Query{
			Aggs:    r.aggs[:n],
			Preds:   qs[0].Preds,
			Epoch:   epoch,
			GroupBy: qs[0].GroupBy, // identical across the set (Rewritable)
		}.Normalize()
	}

	// Merged predicates: attribute constrained iff constrained in every
	// query, with the widened range.
	var merged [attrSlots]query.Predicate
	var constrain [attrSlots]int // queries with a predicate on the attribute
	for i := range qs {
		for _, p := range qs[i].Preds {
			if constrain[p.Attr]++; constrain[p.Attr] > 1 {
				p = merged[p.Attr].Union(p)
			}
			merged[p.Attr] = p
		}
	}
	var acquire field.AttrSet
	for i := range qs {
		q := &qs[i]
		acquire |= field.SetOf(q.Attrs)
		for _, a := range q.Aggs {
			acquire |= 1 << a.Attr
		}
		if q.GroupBy != nil {
			acquire |= 1 << q.GroupBy.Attr
		}
		for _, p := range q.Preds {
			if constrain[p.Attr] == len(qs) && merged[p.Attr] == p {
				continue // filtered identically in-network; no raw value needed
			}
			acquire |= 1 << p.Attr
		}
	}
	na, np := 0, 0
	for a := field.Attr(0); a < attrSlots; a++ {
		if acquire.Has(a) {
			r.attrs[na] = a
			na++
		}
		if constrain[a] == len(qs) {
			r.preds[np] = merged[a]
			np++
		}
	}
	// Normalize drops a predicate the widening left unbounded on both sides.
	return query.Query{Attrs: r.attrs[:na], Preds: r.preds[:np], Epoch: epoch}.Normalize()
}

// gcdSlides is the GCD of two window reporting slides.
func gcdSlides(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
