package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cost"
	"repro/internal/query"
)

// SyntheticIDBase offsets synthetic query IDs away from user query IDs so
// the two namespaces never collide in message headers or logs.
const SyntheticIDBase query.ID = 1 << 20

// Change describes the net effect of one optimizer operation on the sensor
// network: synthetic queries to inject and synthetic queries to abort. A
// synthetic query created and superseded within the same operation never
// appears — the base station screens such churn from the network (§3).
type Change struct {
	Inject []query.Query
	Abort  []query.ID
}

// Empty reports whether the operation requires no network traffic at all
// ("the query insertion and termination can be handled at the base station,
// without affecting the sensor network").
func (c Change) Empty() bool { return len(c.Inject) == 0 && len(c.Abort) == 0 }

// synthetic is one entry of the synthetic query table (§3.1.1). The paper's
// per-field count annotations are realized by keeping every contributor's
// original query in members and recomputing the canonical requirement with
// Synthesize; "some count decreased to 0" is then exactly "the canonical
// requirement shrank" (see DESIGN.md). The paper's flag field tracks
// in-flight injections; our injection is atomic within an operation, so the
// running set itself plays that role.
type synthetic struct {
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
func (o *Optimizer) setMembers(s *synthetic, members []query.Query) {
	s.members = members
	s.plan = make([]memberPlan, len(members))
	for i, uq := range members {
		s.plan[i] = compilePlan(s.q, uq)
		o.userSyn[uq.ID] = s.id
	}
	s.benefit = o.benefitOf(s)
}

// mergeMembers merges two ascending-ID member lists with disjoint IDs.
func mergeMembers(a, b []query.Query) []query.Query {
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

// Optimizer is the base-station (tier 1) optimizer: it maintains the set of
// running synthetic queries and rewrites user queries into them.
//
// Optimizer is not safe for concurrent use; the base station serializes
// query admission.
type Optimizer struct {
	model   *cost.Model
	alpha   float64
	syn     map[query.ID]*synthetic
	userSyn map[query.ID]query.ID    // user query ID → synthetic query ID
	users   map[query.ID]query.Query // user query ID → original query
	nextSyn query.ID
}

// Options configures an Optimizer.
type Options struct {
	// Alpha is the §3.1.4 termination-aggressiveness parameter: on a
	// termination that strands data requests, the old synthetic query is
	// kept iff cost(q) ≤ α·benefit. The paper's sweet spot is 0.6.
	Alpha float64
}

// DefaultAlpha is the α the paper finds best (Figure 4(b)).
const DefaultAlpha = 0.6

// NewOptimizer returns an optimizer that estimates costs with model.
func NewOptimizer(model *cost.Model, opts Options) *Optimizer {
	if opts.Alpha == 0 {
		opts.Alpha = DefaultAlpha
	}
	return &Optimizer{
		model:   model,
		alpha:   opts.Alpha,
		syn:     make(map[query.ID]*synthetic),
		userSyn: make(map[query.ID]query.ID),
		users:   make(map[query.ID]query.Query),
		nextSyn: SyntheticIDBase,
	}
}

// Alpha returns the configured termination parameter.
func (o *Optimizer) Alpha() float64 { return o.alpha }

// Model returns the cost model (shared so callers can feed observations).
func (o *Optimizer) Model() *cost.Model { return o.model }

// Insert admits a new user query (Algorithm 1) and returns the resulting
// network change. The query must carry a unique positive ID below
// SyntheticIDBase.
func (o *Optimizer) Insert(q query.Query) (Change, error) {
	if q.ID <= 0 || q.ID >= SyntheticIDBase {
		return Change{}, fmt.Errorf("core: user query ID %d out of range", q.ID)
	}
	if _, dup := o.users[q.ID]; dup {
		return Change{}, fmt.Errorf("core: duplicate user query ID %d", q.ID)
	}
	q = q.Normalize()
	if err := q.Validate(); err != nil {
		return Change{}, fmt.Errorf("core: %w", err)
	}
	before := o.runningIDs()
	o.users[q.ID] = q
	o.insert([]query.Query{q}, q)
	return o.diff(before), nil
}

// InsertBatch admits several user queries as one operation, returning the
// *net* network change: synthetic queries created and superseded while the
// batch merges amongst itself never touch the network. Posting n similar
// queries one by one floods up to 2n−1 injections/abortions; a batch floods
// only the final synthetic set. On error, queries admitted before the
// failure stay admitted and the change reflects them.
func (o *Optimizer) InsertBatch(qs []query.Query) (Change, error) {
	before := o.runningIDs()
	for _, q := range qs {
		if q.ID <= 0 || q.ID >= SyntheticIDBase {
			return o.diff(before), fmt.Errorf("core: user query ID %d out of range", q.ID)
		}
		if _, dup := o.users[q.ID]; dup {
			return o.diff(before), fmt.Errorf("core: duplicate user query ID %d", q.ID)
		}
		q = q.Normalize()
		if err := q.Validate(); err != nil {
			return o.diff(before), fmt.Errorf("core: %w", err)
		}
		o.users[q.ID] = q
		o.insert([]query.Query{q}, q)
	}
	return o.diff(before), nil
}

// Terminate removes a user query (Algorithm 2) and returns the resulting
// network change.
func (o *Optimizer) Terminate(qid query.ID) (Change, error) {
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
	if Synthesize(rest).Equal(s.q) || o.model.Cost(uq) <= o.alpha*oldBenefit {
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
// from-list (ascending ID) so that the "Integrate then Insert(q_id, Q_syn)"
// recursion (line 14) reuses the same path: the merged synthetic query
// re-enters insertion as the new query, bringing its contributors along.
func (o *Optimizer) insert(from []query.Query, q query.Query) {
	for {
		best, bestRate, covers := o.mostBeneficial(q)
		switch {
		case best != nil && covers:
			// q_id covers q_i: attach; the workload on the network does not
			// change (Algorithm 1 lines 11–12).
			o.setMembers(best, mergeMembers(best.members, from))
			return
		case best != nil && bestRate > 0:
			// Integrate(q_id, q_i), then re-insert the merged query against
			// the remaining synthetic queries (lines 13–14).
			delete(o.syn, best.id)
			from = mergeMembers(from, best.members)
			q = Synthesize(from)
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
func (o *Optimizer) mostBeneficial(q query.Query) (best *synthetic, bestRate float64, covers bool) {
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
func (o *Optimizer) benefitRate(q query.Query, cq float64, s *synthetic) float64 {
	if cq <= 0 {
		return 0
	}
	mergedFrom := make([]query.Query, 0, len(s.members)+1)
	mergedFrom = append(append(mergedFrom, s.members...), q)
	merged := Synthesize(mergedFrom)
	rate := (o.model.Cost(s.q) + cq - o.model.Cost(merged)) / cq
	if rate > 1 {
		rate = 1
	}
	return rate
}

func (o *Optimizer) addSynthetic(from []query.Query, q query.Query) {
	s := &synthetic{id: o.nextSyn, q: q}
	s.q.ID = s.id
	o.nextSyn++
	o.syn[s.id] = s
	o.setMembers(s, from)
}

// benefitOf returns Σ cost(contributors) − cost(synthetic), summed in
// ascending member ID (see sortedIDs for why the order is fixed).
func (o *Optimizer) benefitOf(s *synthetic) float64 {
	var sum float64
	for _, uq := range s.members {
		sum += o.model.Cost(uq)
	}
	return sum - o.model.Cost(s.q)
}

func (o *Optimizer) runningIDs() map[query.ID]bool {
	ids := make(map[query.ID]bool, len(o.syn))
	for id := range o.syn {
		ids[id] = true
	}
	return ids
}

func (o *Optimizer) diff(before map[query.ID]bool) Change {
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

func (o *Optimizer) sortedSyn() []*synthetic {
	out := make([]*synthetic, 0, len(o.syn))
	for _, s := range o.syn {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b *synthetic) int { return cmp.Compare(a.id, b.id) })
	return out
}

// --- Introspection (used by the experiment harnesses and the shell) ---

// SyntheticQueries returns the running synthetic queries, sorted by ID.
func (o *Optimizer) SyntheticQueries() []query.Query {
	out := make([]query.Query, 0, len(o.syn))
	for _, s := range o.sortedSyn() {
		out = append(out, s.q.Clone())
	}
	return out
}

// SyntheticCount returns the number of running synthetic queries (the
// Figure 4(c) metric).
func (o *Optimizer) SyntheticCount() int { return len(o.syn) }

// UserCount returns the number of live user queries.
func (o *Optimizer) UserCount() int { return len(o.users) }

// UserQueries returns the live user queries, sorted by ID.
func (o *Optimizer) UserQueries() []query.Query {
	out := make([]query.Query, 0, len(o.users))
	for _, id := range sortedIDs(o.users) {
		out = append(out, o.users[id])
	}
	return out
}

// SyntheticFor returns the synthetic query that serves user query qid.
func (o *Optimizer) SyntheticFor(qid query.ID) (query.Query, bool) {
	sid, ok := o.userSyn[qid]
	if !ok {
		return query.Query{}, false
	}
	return o.syn[sid].q.Clone(), true
}

// FromList returns the user query IDs served by synthetic query sid, sorted.
func (o *Optimizer) FromList(sid query.ID) []query.ID {
	s, ok := o.syn[sid]
	if !ok {
		return nil
	}
	ids := make([]query.ID, 0, len(s.members))
	for _, uq := range s.members {
		ids = append(ids, uq.ID)
	}
	return ids
}

// sortedIDs returns a map's query IDs in ascending order. The cost totals
// below sum in this fixed order: floating-point addition is not
// associative, so summing in map iteration order would make the totals
// differ in the last ulps from run to run and break the experiments'
// reproducibility guarantee.
func sortedIDs[V any](m map[query.ID]V) []query.ID {
	ids := make([]query.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TotalUserCost returns Σ cost(q) over live user queries — the denominator
// of the Figure 4 benefit ratio.
func (o *Optimizer) TotalUserCost() float64 {
	var sum float64
	for _, id := range sortedIDs(o.users) {
		sum += o.model.Cost(o.users[id])
	}
	return sum
}

// TotalSyntheticCost returns Σ cost(s) over running synthetic queries.
func (o *Optimizer) TotalSyntheticCost() float64 {
	var sum float64
	for _, id := range sortedIDs(o.syn) {
		sum += o.model.Cost(o.syn[id].q)
	}
	return sum
}

// TotalBenefit returns Σ benefit over running synthetic queries; by
// construction it equals TotalUserCost() − TotalSyntheticCost().
func (o *Optimizer) TotalBenefit() float64 {
	var sum float64
	for _, id := range sortedIDs(o.syn) {
		sum += o.syn[id].benefit
	}
	return sum
}
