package core

import (
	"cmp"
	"fmt"
	"slices"

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

// priced is a query with its estimated cost, evaluated at most once per
// generation of the model's histograms (Optimizer.cost).
type priced struct {
	q    query.Query
	cost float64
	at   uint64 // generation of cost, plus one; zero before the first evaluation
}

// user is one entry of the user query table.
type user struct {
	priced
	// syn is the synthetic query serving the user query and plan how its
	// results derive from syn's stream; setMembers keeps the two in step.
	syn  *synthetic
	plan memberPlan
}

// synthetic is one entry of the synthetic query table (§3.1.1); its q carries
// id. The paper's per-field count annotations are realized by keeping every
// contributor in members and recomputing the canonical requirement with
// Synthesize; "some count decreased to 0" is then exactly "the canonical
// requirement shrank" (see DESIGN.md). The paper's flag field tracks
// in-flight injections; our injection is atomic within an operation, so the
// running set itself plays that role.
type synthetic struct {
	priced
	id query.ID
	// members holds the contributing user queries (the from_list) in
	// ascending ID, the one order every sum and re-insertion over them runs
	// in.
	members []*user
	// benefit is Σ cost(user) − cost(q), the gain over running the
	// contributors individually (§3.1.1(d)), priced at the histograms of the
	// last setMembers.
	benefit float64
}

// cost returns cost(p.q) at the model's current histograms.
func (o *Optimizer) cost(p *priced) float64 {
	if at := o.model.Generation() + 1; p.at != at {
		p.cost, p.at = o.model.Cost(p.q), at
	}
	return p.cost
}

// setMembers replaces the contributor list (ascending ID) and reprices the
// benefit. A member new to s has its mapping plan compiled; the others keep
// theirs, because a synthetic query's requirement never changes while it runs.
func (o *Optimizer) setMembers(s *synthetic, members []*user) {
	s.members = members
	for _, u := range members {
		if u.syn != s {
			u.syn, u.plan = s, compilePlan(s.q, u.q)
		}
	}
	s.benefit = o.benefitOf(s)
}

// mergeMembers merges two ascending-ID member lists with disjoint IDs.
func mergeMembers(a, b []*user) []*user {
	out := make([]*user, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].q.ID < b[0].q.ID {
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
	syn     []*synthetic // ascending ID, which is creation order
	users   map[query.ID]*user
	nextSyn query.ID
	// The operation in progress: synthetic queries numbered from first on
	// are the ones it created, aborted the older ones it removed.
	first   query.ID
	aborted []query.ID
	scratch []query.Query // what queries returns, reused
	pending []*user       // the users Insert has checked; reused, cleared after each call
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
		users:   make(map[query.ID]*user),
		nextSyn: SyntheticIDBase,
	}
}

// Alpha returns the configured termination parameter.
func (o *Optimizer) Alpha() float64 { return o.alpha }

// Model returns the cost model (shared so callers can feed observations).
func (o *Optimizer) Model() *cost.Model { return o.model }

// Insert admits user queries as one operation, Algorithm 1 on each in turn,
// and returns the *net* network change: synthetic queries created and
// superseded while the queries merge amongst themselves never touch the
// network. Inserting n similar queries one by one floods up to 2n−1
// injections/abortions; one Insert of all n floods only the final synthetic
// set. Each query must carry a positive ID below SyntheticIDBase that is
// neither live nor repeated in qs. Every query is checked before any is
// admitted, so on error the change is empty and the tables are untouched.
func (o *Optimizer) Insert(qs ...query.Query) (Change, error) {
	o.pending = o.pending[:0]
	defer func() { clear(o.pending) }()
	for _, q := range qs {
		if q.ID <= 0 || q.ID >= SyntheticIDBase {
			return Change{}, fmt.Errorf("core: user query ID %d out of range", q.ID)
		}
		if o.users[q.ID] != nil || slices.ContainsFunc(o.pending, func(u *user) bool { return u.q.ID == q.ID }) {
			return Change{}, fmt.Errorf("core: duplicate user query ID %d", q.ID)
		}
		q = q.Normalize()
		if err := q.Validate(); err != nil {
			return Change{}, fmt.Errorf("core: %w", err)
		}
		o.pending = append(o.pending, &user{priced: priced{q: q}})
	}
	o.begin()
	for _, u := range o.pending {
		o.users[u.q.ID] = u
		o.insert([]*user{u}, &u.priced)
	}
	return o.end(), nil
}

// Terminate removes a user query (Algorithm 2) and returns the resulting
// network change.
func (o *Optimizer) Terminate(qid query.ID) (Change, error) {
	u, ok := o.users[qid]
	if !ok {
		return Change{}, fmt.Errorf("core: unknown user query ID %d", qid)
	}
	o.begin()
	s := u.syn
	oldBenefit := s.benefit

	delete(o.users, qid)
	rest := make([]*user, 0, len(s.members)-1)
	for _, m := range s.members {
		if m != u {
			rest = append(rest, m)
		}
	}

	if len(rest) == 0 {
		o.remove(s)
		return o.end(), nil
	}

	// No count dropped to 0 — the remaining queries still require every
	// piece of data s requests — or some data is now requested by no one
	// but the stranded volume is small relative to the synthetic query's
	// benefit, cost(q) ≤ α·benefit: keep the old synthetic query, hiding
	// the termination from the network.
	var r requirement
	if r.of(o.queries(rest)).Equal(s.q) || o.cost(&u.priced) <= o.alpha*oldBenefit {
		o.setMembers(s, rest)
		return o.end(), nil
	}

	// Otherwise re-insert the remaining user queries as if newly arrived
	// (Algorithm 2 lines 6–7).
	o.remove(s)
	for _, m := range rest {
		o.insert([]*user{m}, &m.priced)
	}
	return o.end(), nil
}

// insert implements the greedy loop of Algorithm 1, generalized to carry a
// from-list (ascending ID) so that the paper's "Integrate then Insert(q_id,
// Q_syn)" recursion (line 14) reuses the same path: the merged synthetic
// query, Synthesize over both member lists, re-enters insertion as the new
// query, bringing its contributors along.
func (o *Optimizer) insert(from []*user, q *priced) {
	for {
		best, bestRate, covers := o.mostBeneficial(q)
		switch {
		case best != nil && covers:
			// q_id covers q_i: attach; the workload on the network does not
			// change (Algorithm 1 lines 11–12).
			o.setMembers(best, mergeMembers(best.members, from))
			return
		case best != nil && bestRate > 0:
			// Merge q_id and q_i (the paper's Integrate: Synthesize over
			// their members), then re-insert the merged query against the
			// remaining synthetic queries (lines 13–14).
			o.remove(best)
			from = mergeMembers(from, best.members)
			q = &priced{q: Synthesize(o.queries(from))}
			continue
		default:
			// No beneficial rewrite: run q as its own synthetic query
			// (lines 15–16, and lines 1–2 when the table is empty). It keeps
			// q's cost along with q.
			s := &synthetic{priced: *q, id: o.nextSyn}
			s.q.ID = s.id
			o.nextSyn++
			o.syn = append(o.syn, s)
			o.setMembers(s, from)
			return
		}
	}
}

// mostBeneficial scans the synthetic query table, in ID order, for the entry
// with the highest benefit rate against q (Algorithm 1 lines 4–10),
// short-circuiting on a covering entry. Coverage is reported as a distinct
// flag rather than rate == 1, so a non-covering merge whose benefit happens
// to equal cost(q) cannot be mistaken for coverage.
func (o *Optimizer) mostBeneficial(q *priced) (best *synthetic, bestRate float64, covers bool) {
	for _, s := range o.syn {
		if query.Covers(s.q, q.q) {
			return s, 1, true
		}
		if !query.Rewritable(q.q, s.q) {
			continue
		}
		if rate := o.benefitRate(q, s); rate > bestRate {
			best, bestRate = s, rate
		}
	}
	return best, bestRate, false
}

// benefitRate is the Beneficial(q_i, q_j) function for a rewritable pair
// where s does not cover q: benefit/cost(q), computed against the exact
// merged requirement and clamped to 1.
func (o *Optimizer) benefitRate(q *priced, s *synthetic) float64 {
	cq := o.cost(q)
	if cq <= 0 {
		return 0
	}
	var r requirement
	merged := r.of(append(o.queries(s.members), q.q))
	rate := (o.cost(&s.priced) + cq - o.model.Cost(merged)) / cq
	if rate > 1 {
		rate = 1
	}
	return rate
}

// benefitOf returns Σ cost(contributors) − cost(synthetic), summed in
// ascending member ID (see sortedIDs for why the order is fixed).
func (o *Optimizer) benefitOf(s *synthetic) float64 {
	var sum float64
	for _, u := range s.members {
		sum += o.cost(&u.priced)
	}
	return sum - o.cost(&s.priced)
}

// queries lists the members' queries in a buffer the next call reuses, with
// room for one more.
func (o *Optimizer) queries(members []*user) []query.Query {
	o.scratch = slices.Grow(o.scratch[:0], len(members)+1)
	for _, u := range members {
		o.scratch = append(o.scratch, u.q)
	}
	return o.scratch
}

// find returns the running synthetic query numbered id, or nil.
func (o *Optimizer) find(id query.ID) *synthetic {
	i, ok := slices.BinarySearchFunc(o.syn, id, func(s *synthetic, id query.ID) int { return cmp.Compare(s.id, id) })
	if !ok {
		return nil
	}
	return o.syn[i]
}

// begin opens an operation, whose net effect on the network end reports.
func (o *Optimizer) begin() { o.first = o.nextSyn }

// remove takes s out of the table. It is an abortion only if s ran before the
// operation began: one created and superseded within it never reached the
// network.
func (o *Optimizer) remove(s *synthetic) {
	i := slices.Index(o.syn, s)
	o.syn = slices.Delete(o.syn, i, i+1)
	if s.id < o.first {
		o.aborted = append(o.aborted, s.id)
	}
}

// end closes the operation: the abortions recorded, and as injections the
// entries it created that still run — the tail of the table.
func (o *Optimizer) end() Change {
	ch := Change{Abort: o.aborted}
	slices.Sort(ch.Abort)
	o.aborted = nil
	i := len(o.syn)
	for i > 0 && o.syn[i-1].id >= o.first {
		i--
	}
	for _, s := range o.syn[i:] {
		ch.Inject = append(ch.Inject, s.q.Clone())
	}
	return ch
}

// --- Introspection (used by the experiment harnesses and the shell) ---

// SyntheticQueries returns the running synthetic queries, sorted by ID.
func (o *Optimizer) SyntheticQueries() []query.Query {
	out := make([]query.Query, 0, len(o.syn))
	for _, s := range o.syn {
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
		out = append(out, o.users[id].q)
	}
	return out
}

// SyntheticFor returns the synthetic query that serves user query qid.
func (o *Optimizer) SyntheticFor(qid query.ID) (query.Query, bool) {
	u, ok := o.users[qid]
	if !ok {
		return query.Query{}, false
	}
	return u.syn.q.Clone(), true
}

// FromList returns the user query IDs served by synthetic query sid, sorted.
func (o *Optimizer) FromList(sid query.ID) []query.ID {
	s := o.find(sid)
	if s == nil {
		return nil
	}
	ids := make([]query.ID, 0, len(s.members))
	for _, u := range s.members {
		ids = append(ids, u.q.ID)
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
	slices.Sort(ids)
	return ids
}

// TotalUserCost returns Σ cost(q) over live user queries — the denominator
// of the Figure 4 benefit ratio.
func (o *Optimizer) TotalUserCost() float64 {
	var sum float64
	for _, id := range sortedIDs(o.users) {
		sum += o.cost(&o.users[id].priced)
	}
	return sum
}

// TotalSyntheticCost returns Σ cost(s) over running synthetic queries.
func (o *Optimizer) TotalSyntheticCost() float64 {
	var sum float64
	for _, s := range o.syn {
		sum += o.cost(&s.priced)
	}
	return sum
}

// TotalBenefit returns Σ benefit over running synthetic queries; by
// construction it equals TotalUserCost() − TotalSyntheticCost().
func (o *Optimizer) TotalBenefit() float64 {
	var sum float64
	for _, s := range o.syn {
		sum += s.benefit
	}
	return sum
}
