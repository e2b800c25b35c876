package query

import (
	"time"

	"repro/internal/field"
)

// EpochGCD returns the greatest common divisor of two epoch durations. With
// all epochs multiples of MinEpoch, the result is too (§3.2.1).
func EpochGCD(a, b time.Duration) time.Duration {
	if a <= 0 {
		return b
	}
	if b <= 0 {
		return a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// EpochGCDAll folds EpochGCD over a set of queries; zero if the set is empty.
func EpochGCDAll(qs []Query) time.Duration {
	var g time.Duration
	for _, q := range qs {
		g = EpochGCD(g, q.Epoch)
	}
	return g
}

// EpochDivides reports whether inner divides outer, i.e. a query with epoch
// `outer` can be served by results produced every `inner`.
func EpochDivides(inner, outer time.Duration) bool {
	return inner > 0 && outer%inner == 0
}

// PredsEqual reports whether two predicate lists are identical once
// normalized. Like PredsCover, Covers, Rewritable and Query.Equal
// it allocates nothing on canonical operands (Normalize returns them as they
// are), which is what tier 1 passes.
func PredsEqual(a, b []Predicate) bool {
	a, b = normalizePreds(a), normalizePreds(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PredsCover reports whether predicate list sup admits every row that sub
// admits (sup ⊇ sub). With conjunctive range predicates this holds iff every
// range in sup contains sub's range on that attribute; an attribute
// constrained only in sub is fine (sup is looser there), but an attribute
// constrained only in sup is not.
func PredsCover(sup, sub []Predicate) bool {
	sup, sub = normalizePreds(sup), normalizePreds(sub)
	for _, ps := range sup {
		found := false
		for _, pb := range sub {
			if pb.Attr == ps.Attr {
				found = true
				if !ps.Contains(pb) {
					return false
				}
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// attrSubset reports whether every attribute of sub appears in sup.
func attrSubset(sub, sup []field.Attr) bool {
	for _, a := range sub {
		found := false
		for _, b := range sup {
			if a == b {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// predDerivable reports whether the base station, given syn's result stream,
// can re-apply user query q's predicates: for each predicate of q, either
// syn applies the identical range in-network (rows arrive exactly
// pre-filtered on that attribute) or syn acquires the attribute so the base
// station can filter.
func predDerivable(syn, q Query) bool {
	for _, p := range q.Preds {
		if sp, ok := syn.PredFor(p.Attr); ok && sp == p {
			continue
		}
		if !syn.HasAttr(p.Attr) {
			return false
		}
	}
	return true
}

// Covers reports whether the synthetic query syn fully answers user query q:
// every result of q is derivable at the base station from syn's result
// stream alone (§3.1.3: BenefitRate == 1). Three cases:
//
//   - acquisition syn, acquisition q: syn's predicates admit all of q's rows,
//     syn acquires q's projection attributes, and q's predicates can be
//     re-applied at the base station;
//   - acquisition syn, aggregation q: as above with q's aggregate inputs in
//     syn's projection — the aggregate is computed from raw rows;
//   - aggregation syn, aggregation q: q's aggregates are among syn's and the
//     predicates are identical (an aggregate over a different row set cannot
//     be derived from an aggregate, per the §3.1.2 correctness constraint).
//
// In every case q's epoch must be a multiple of syn's so that q's epochs are
// a subsequence of syn's.
func Covers(syn, q Query) bool {
	if !EpochDivides(syn.Epoch, q.Epoch) {
		return false
	}
	if syn.IsWindowed() || q.IsWindowed() {
		// A windowed value is derived from a node's private sample history;
		// it is only coverable by a windowed synthetic query running the
		// exact same windows on the exact same rows and schedule.
		if !syn.IsWindowed() || !q.IsWindowed() {
			return false
		}
		if syn.Epoch != q.Epoch || !PredsEqual(syn.Preds, q.Preds) {
			return false
		}
		for _, w := range q.Wins {
			found := false
			for _, sw := range syn.Wins {
				// Same computation, and q's reporting instants are a
				// subsequence of syn's (its slide divides q's).
				if sw.Op == w.Op && sw.Attr == w.Attr && sw.Window == w.Window &&
					w.Slide%sw.Slide == 0 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if syn.IsAggregation() {
		if !q.IsAggregation() {
			return false
		}
		if !PredsEqual(syn.Preds, q.Preds) {
			return false
		}
		// Grouped partials cannot be re-bucketed: the group specs must
		// match exactly.
		if !syn.GroupBy.Equal(q.GroupBy) {
			return false
		}
		for _, a := range q.Aggs {
			if !syn.HasAgg(a) {
				return false
			}
		}
		return true
	}
	// syn is an acquisition query.
	if !PredsCover(syn.Preds, q.Preds) {
		return false
	}
	if !predDerivable(syn, q) {
		return false
	}
	if q.IsAggregation() {
		for _, a := range q.Aggs {
			if !syn.HasAttr(a.Attr) {
				return false
			}
		}
		// A grouped aggregate needs the grouping attribute's raw value.
		if q.GroupBy != nil && !syn.HasAttr(q.GroupBy.Attr) {
			return false
		}
		return true
	}
	return attrSubset(q.Attrs, syn.Attrs)
}

// Rewritable reports whether two queries may be integrated into one
// synthetic query at all (§3.1.3: the Beneficial function "first identifies
// whether two queries are rewritable based on semantic correctness
// constraints"). Two aggregation queries are rewritable only with identical
// predicates; any combination involving an acquisition query is rewritable,
// because raw rows can always be widened to cover both.
func Rewritable(a, b Query) bool {
	if a.IsWindowed() || b.IsWindowed() {
		// Windowed queries merge only with windowed queries over the same
		// rows and schedule, and only when no attribute carries two
		// different window specs (see query.Win).
		return a.IsWindowed() && b.IsWindowed() &&
			a.Epoch == b.Epoch &&
			PredsEqual(a.Preds, b.Preds) &&
			winsCompatible(a.Wins, b.Wins)
	}
	if a.IsAggregation() && b.IsAggregation() {
		return PredsEqual(a.Preds, b.Preds) && a.GroupBy.Equal(b.GroupBy)
	}
	return true
}
