package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/query"
)

// The reference optimizer: Insert / Terminate / Synthesize /
// benefitOf as they stood before tier 1 stopped re-deriving what an operation
// did not change — every member's plan recompiled and cost re-evaluated on
// each setMembers, the canonical requirement rebuilt through maps, the
// network change taken as a before/after diff of the table. It is the oracle
// TestOptimizerMatchesReference and FuzzOptimizerOps hold the optimizer to,
// operation by operation and bit by bit (DESIGN.md §5 invariant 9), the way
// mapper_ref_test.go keeps the map-per-row mapper.

// refSortedIDs returns a map's query IDs in ascending order.
func refSortedIDs[V any](m map[query.ID]V) []query.ID {
	ids := make([]query.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// synthetic is one entry of the synthetic query table (§3.1.1). The paper's
// per-field count annotations are realized by keeping every contributor's
// original query in members and recomputing the canonical requirement with
// Synthesize; "some count decreased to 0" is then exactly "the canonical
// requirement shrank" (see DESIGN.md). The paper's flag field tracks
// in-flight injections; our injection is atomic within an operation, so the
// running set itself plays that role.
type refSynthetic struct {
	id query.ID
	q  query.Query
	// members holds the contributing user queries' original queries (the
	// from_list) in ascending ID, the one order every sum and re-insertion
	// over them runs in.
	members []query.Query
	// plan[i] is how members[i]'s results derive from q's stream; setMembers
	// keeps the two in step.
	plan []memberPlan
	// benefit is Σ cost(user) − cost(q), the gain over running the
	// contributors individually (§3.1.1(d)).
	benefit float64
}

// setMembers replaces the contributor list (ascending ID), recompiles the
// mapping plan and points every member's userSyn entry at s.
func (o *refOptimizer) setMembers(s *refSynthetic, members []query.Query) {
	s.members = members
	s.plan = make([]memberPlan, len(members))
	for i, uq := range members {
		s.plan[i] = compilePlan(s.q, uq)
		o.userSyn[uq.ID] = s.id
	}
	s.benefit = o.benefitOf(s)
}

// refMergeMembers merges two ascending-ID member lists with disjoint IDs.
func refMergeMembers(a, b []query.Query) []query.Query {
	out := make([]query.Query, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].ID < b[0].ID {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// refOptimizer is the base-station (tier 1) optimizer: it maintains the set of
// running synthetic queries and rewrites user queries into them.
//
// refOptimizer is not safe for concurrent use; the base station serializes
// query admission.
type refOptimizer struct {
	model   *cost.Model
	alpha   float64
	syn     map[query.ID]*refSynthetic
	userSyn map[query.ID]query.ID    // user query ID → synthetic query ID
	users   map[query.ID]query.Query // user query ID → original query
	nextSyn query.ID
}

// newRefOptimizer returns an optimizer that estimates costs with model.
func newRefOptimizer(model *cost.Model, opts Options) *refOptimizer {
	if opts.Alpha == 0 {
		opts.Alpha = DefaultAlpha
	}
	return &refOptimizer{
		model:   model,
		alpha:   opts.Alpha,
		syn:     make(map[query.ID]*refSynthetic),
		userSyn: make(map[query.ID]query.ID),
		users:   make(map[query.ID]query.Query),
		nextSyn: SyntheticIDBase,
	}
}

// Insert admits user queries as one operation, returning the *net* network
// change: synthetic queries created and superseded while the queries merge
// amongst themselves never touch the network. Every query is checked first;
// on error the change is empty and the tables are untouched.
func (o *refOptimizer) Insert(qs ...query.Query) (Change, error) {
	var ok []query.Query
	for _, q := range qs {
		if q.ID <= 0 || q.ID >= SyntheticIDBase {
			return Change{}, fmt.Errorf("core: user query ID %d out of range", q.ID)
		}
		if _, dup := o.users[q.ID]; dup || slices.ContainsFunc(ok, func(p query.Query) bool { return p.ID == q.ID }) {
			return Change{}, fmt.Errorf("core: duplicate user query ID %d", q.ID)
		}
		q = q.Normalize()
		if err := q.Validate(); err != nil {
			return Change{}, fmt.Errorf("core: %w", err)
		}
		ok = append(ok, q)
	}
	before := o.runningIDs()
	for _, q := range ok {
		o.users[q.ID] = q
		o.insert([]query.Query{q}, q)
	}
	return o.diff(before), nil
}

// Terminate removes a user query (Algorithm 2) and returns the resulting
// network change.
func (o *refOptimizer) Terminate(qid query.ID) (Change, error) {
	uq, ok := o.users[qid]
	if !ok {
		return Change{}, fmt.Errorf("core: unknown user query ID %d", qid)
	}
	before := o.runningIDs()
	synID := o.userSyn[qid]
	s := o.syn[synID]
	oldBenefit := s.benefit

	delete(o.users, qid)
	delete(o.userSyn, qid)
	rest := make([]query.Query, 0, len(s.members)-1)
	for _, m := range s.members {
		if m.ID != qid {
			rest = append(rest, m)
		}
	}

	if len(rest) == 0 {
		delete(o.syn, synID)
		return o.diff(before), nil
	}

	// No count dropped to 0 — the remaining queries still require every
	// piece of data s requests — or some data is now requested by no one
	// but the stranded volume is small relative to the synthetic query's
	// benefit, cost(q) ≤ α·benefit: keep the old synthetic query, hiding
	// the termination from the network.
	if refSynthesize(rest).Equal(s.q) || o.model.Cost(uq) <= o.alpha*oldBenefit {
		o.setMembers(s, rest)
		return o.diff(before), nil
	}

	// Otherwise re-insert the remaining user queries as if newly arrived
	// (Algorithm 2 lines 6–7).
	delete(o.syn, synID)
	for _, rq := range rest {
		delete(o.userSyn, rq.ID)
		o.insert([]query.Query{rq}, rq)
	}
	return o.diff(before), nil
}

// insert implements the greedy loop of Algorithm 1, generalized to carry a
// from-list (ascending ID) so that the paper's "Integrate then Insert(q_id,
// Q_syn)" recursion (line 14) reuses the same path: the merged synthetic
// query, Synthesize over both member lists, re-enters insertion as the new
// query, bringing its contributors along.
func (o *refOptimizer) insert(from []query.Query, q query.Query) {
	for {
		best, bestRate, covers := o.mostBeneficial(q)
		switch {
		case best != nil && covers:
			// q_id covers q_i: attach; the workload on the network does not
			// change (Algorithm 1 lines 11–12).
			o.setMembers(best, refMergeMembers(best.members, from))
			return
		case best != nil && bestRate > 0:
			// Merge q_id and q_i (the paper's Integrate: Synthesize over
			// their members), then re-insert the merged query against the
			// remaining synthetic queries (lines 13–14).
			delete(o.syn, best.id)
			from = refMergeMembers(from, best.members)
			q = refSynthesize(from)
			continue
		default:
			// No beneficial rewrite: run q as its own synthetic query
			// (lines 15–16, and lines 1–2 when the table is empty).
			o.addSynthetic(from, q)
			return
		}
	}
}

// mostBeneficial scans the synthetic query table for the entry with the
// highest benefit rate against q (Algorithm 1 lines 4–10), short-circuiting
// on a covering entry. Coverage is reported as a distinct flag rather than
// rate == 1, so a non-covering merge whose benefit happens to equal cost(q)
// cannot be mistaken for coverage.
func (o *refOptimizer) mostBeneficial(q query.Query) (best *refSynthetic, bestRate float64, covers bool) {
	cq := -1.0 // cost(q): evaluated once per scan, by the first candidate that needs it
	for _, s := range o.sortedSyn() {
		if query.Covers(s.q, q) {
			return s, 1, true
		}
		if !query.Rewritable(q, s.q) {
			continue
		}
		if cq < 0 {
			cq = o.model.Cost(q)
		}
		if rate := o.benefitRate(q, cq, s); rate > bestRate {
			best, bestRate = s, rate
		}
	}
	return best, bestRate, false
}

// benefitRate is the Beneficial(q_i, q_j) function for a rewritable pair
// where s does not cover q: benefit/cost(q), computed against the exact
// merged requirement and clamped to 1. cq is cost(q).
func (o *refOptimizer) benefitRate(q query.Query, cq float64, s *refSynthetic) float64 {
	if cq <= 0 {
		return 0
	}
	mergedFrom := make([]query.Query, 0, len(s.members)+1)
	mergedFrom = append(append(mergedFrom, s.members...), q)
	merged := refSynthesize(mergedFrom)
	rate := (o.model.Cost(s.q) + cq - o.model.Cost(merged)) / cq
	if rate > 1 {
		rate = 1
	}
	return rate
}

func (o *refOptimizer) addSynthetic(from []query.Query, q query.Query) {
	s := &refSynthetic{id: o.nextSyn, q: q}
	s.q.ID = s.id
	o.nextSyn++
	o.syn[s.id] = s
	o.setMembers(s, from)
}

// benefitOf returns Σ cost(contributors) − cost(synthetic), summed in
// ascending member ID (see sortedIDs for why the order is fixed).
func (o *refOptimizer) benefitOf(s *refSynthetic) float64 {
	var sum float64
	for _, uq := range s.members {
		sum += o.model.Cost(uq)
	}
	return sum - o.model.Cost(s.q)
}

func (o *refOptimizer) runningIDs() map[query.ID]bool {
	ids := make(map[query.ID]bool, len(o.syn))
	for id := range o.syn {
		ids[id] = true
	}
	return ids
}

func (o *refOptimizer) diff(before map[query.ID]bool) Change {
	var ch Change
	for id := range before {
		if _, still := o.syn[id]; !still {
			ch.Abort = append(ch.Abort, id)
		}
	}
	for id, s := range o.syn {
		if !before[id] {
			ch.Inject = append(ch.Inject, s.q.Clone())
		}
	}
	sort.Slice(ch.Abort, func(i, j int) bool { return ch.Abort[i] < ch.Abort[j] })
	sort.Slice(ch.Inject, func(i, j int) bool { return ch.Inject[i].ID < ch.Inject[j].ID })
	return ch
}

func (o *refOptimizer) sortedSyn() []*refSynthetic {
	out := make([]*refSynthetic, 0, len(o.syn))
	for _, s := range o.syn {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b *refSynthetic) int { return cmp.Compare(a.id, b.id) })
	return out
}

// TotalUserCost returns Σ cost(q) over live user queries — the denominator
// of the Figure 4 benefit ratio.
func (o *refOptimizer) TotalUserCost() float64 {
	var sum float64
	for _, id := range refSortedIDs(o.users) {
		sum += o.model.Cost(o.users[id])
	}
	return sum
}

// TotalSyntheticCost returns Σ cost(s) over running synthetic queries.
func (o *refOptimizer) TotalSyntheticCost() float64 {
	var sum float64
	for _, id := range refSortedIDs(o.syn) {
		sum += o.model.Cost(o.syn[id].q)
	}
	return sum
}

// TotalBenefit returns Σ benefit over running synthetic queries; by
// construction it equals TotalUserCost() − TotalSyntheticCost().
func (o *refOptimizer) TotalBenefit() float64 {
	var sum float64
	for _, id := range refSortedIDs(o.syn) {
		sum += o.syn[id].benefit
	}
	return sum
}

// refSynthesize returns the canonical synthetic query serving a set of user
// queries: the exact data requirement of the set, independent of the order
// in which the set was assembled.
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
// This is the n-ary closure of the paper's pairwise merge (§3.1.2), with the
// re-filter attributes computed exactly rather than pairwise-conservatively;
// the paper's count fields (§3.1.1) are realized by recomputing this
// canonical form from the surviving contributors (see DESIGN.md).
func refSynthesize(qs []query.Query) query.Query {
	if len(qs) == 0 {
		return query.Query{}
	}
	allWin := true
	allAgg := true
	for _, q := range qs {
		if !q.IsAggregation() {
			allAgg = false
		}
		if !q.IsWindowed() {
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
	if allAgg {
		for _, q := range qs[1:] {
			if !query.PredsEqual(qs[0].Preds, q.Preds) || !qs[0].GroupBy.Equal(q.GroupBy) {
				allAgg = false
				break
			}
		}
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
	for _, q := range qs[1:] {
		epoch = query.EpochGCD(epoch, q.Epoch)
	}
	if allAgg {
		var aggs []query.Agg
		for _, q := range qs {
			aggs = append(aggs, q.Aggs...)
		}
		return query.Query{
			Aggs:    aggs,
			Preds:   qs[0].Preds,
			Epoch:   epoch,
			GroupBy: qs[0].GroupBy, // identical across the set (Rewritable)
		}.Normalize()
	}

	// Merged predicates: attribute constrained iff constrained in every
	// query, with the widened range.
	merged := qs[0].Preds
	for _, q := range qs[1:] {
		merged = refUnionPreds(merged, q.Preds)
	}
	mergedFor := make(map[field.Attr]query.Predicate, len(merged))
	for _, p := range merged {
		mergedFor[p.Attr] = p
	}

	attrSet := make(map[field.Attr]bool)
	for _, q := range qs {
		for _, a := range q.Attrs {
			attrSet[a] = true
		}
		for _, a := range q.AggAttrs() {
			attrSet[a] = true
		}
		if q.GroupBy != nil {
			attrSet[q.GroupBy.Attr] = true
		}
		for _, p := range q.Preds {
			if mp, ok := mergedFor[p.Attr]; ok && mp == p {
				continue // filtered identically in-network; no raw value needed
			}
			attrSet[p.Attr] = true
		}
	}
	attrs := make([]field.Attr, 0, len(attrSet))
	for a := range attrSet {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })

	return query.Query{
		Attrs: attrs,
		Preds: merged,
		Epoch: epoch,
	}.Normalize()
}

// refUnionPreds is the pairwise conjunctive-superset union of §3.1.2: an
// attribute stays constrained only if both lists constrain it, with the
// widened range.
func refUnionPreds(a, b []query.Predicate) []query.Predicate {
	var out []query.Predicate
	for _, pa := range a {
		for _, pb := range b {
			if pa.Attr == pb.Attr {
				out = append(out, pa.Union(pb))
			}
		}
	}
	return query.Query{Preds: out}.Normalize().Preds
}
