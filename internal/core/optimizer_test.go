package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

func newTestOptimizer(t *testing.T, alpha float64) *Optimizer {
	t.Helper()
	m, err := cost.NewModel([]int{1, 3, 6, 6}, cost.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return NewOptimizer(m, Options{Alpha: alpha})
}

func mustInsert(t *testing.T, o *Optimizer, id query.ID, s string) Change {
	t.Helper()
	q := query.MustParse(s)
	q.ID = id
	ch, err := o.Insert(q)
	if err != nil {
		t.Fatalf("Insert(%d, %q): %v", id, s, err)
	}
	return ch
}

func TestInsertFirstQueryBecomesSynthetic(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	ch := mustInsert(t, o, 1, "SELECT light WHERE light > 100 EPOCH DURATION 4096")
	if len(ch.Inject) != 1 || len(ch.Abort) != 0 {
		t.Fatalf("change = %+v", ch)
	}
	if o.SyntheticCount() != 1 || o.UserCount() != 1 {
		t.Fatalf("counts: syn=%d user=%d", o.SyntheticCount(), o.UserCount())
	}
	syn, ok := o.SyntheticFor(1)
	if !ok || !query.Covers(syn, o.UserQueries()[0]) {
		t.Fatal("synthetic must cover its user query")
	}
	if syn.ID < SyntheticIDBase {
		t.Fatalf("synthetic ID %d in user space", syn.ID)
	}
}

func TestInsertCoveredQueryNoNetworkChange(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	ch := mustInsert(t, o, 2, "SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	if !ch.Empty() {
		t.Fatalf("covered insert should not touch the network: %+v", ch)
	}
	if o.SyntheticCount() != 1 {
		t.Fatalf("synthetic count = %d", o.SyntheticCount())
	}
	s1, _ := o.SyntheticFor(1)
	s2, _ := o.SyntheticFor(2)
	if s1.ID != s2.ID {
		t.Fatal("both users must map to the same synthetic query")
	}
}

func TestInsertBeneficialMergeReplacesSynthetic(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	ch1 := mustInsert(t, o, 1, "SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192")
	ch2 := mustInsert(t, o, 2, "SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192")
	if len(ch2.Inject) != 1 || len(ch2.Abort) != 1 {
		t.Fatalf("merge change = %+v", ch2)
	}
	if ch2.Abort[0] != ch1.Inject[0].ID {
		t.Fatal("merge must abort the replaced synthetic query")
	}
	if o.SyntheticCount() != 1 {
		t.Fatalf("synthetic count = %d", o.SyntheticCount())
	}
	for _, uid := range []query.ID{1, 2} {
		syn, _ := o.SyntheticFor(uid)
		uq := findUser(o, uid)
		if !query.Covers(syn, uq) {
			t.Fatalf("user %d not covered", uid)
		}
	}
}

func TestInsertNonBeneficialStaysSeparate(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	// The §3.1.3 pair with negative benefit.
	mustInsert(t, o, 1, "select light where 280<light<600 epoch duration 4096")
	ch := mustInsert(t, o, 2, "select light where 100<light<300 epoch duration 8192")
	if len(ch.Inject) != 1 || len(ch.Abort) != 0 {
		t.Fatalf("non-beneficial insert should add a separate synthetic: %+v", ch)
	}
	if o.SyntheticCount() != 2 {
		t.Fatalf("synthetic count = %d, want 2", o.SyntheticCount())
	}
}

// The full §3.1.3 trace: q1 and q2 stay separate; q3 merges with q2; the
// merged query then absorbs q1 via the recursive re-insert, ending with ONE
// synthetic query over light ∈ (100,600) at epoch 4096ms.
func TestPaperExampleRecursiveInsert(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "select light where 280<light<600 epoch duration 4096")
	mustInsert(t, o, 2, "select light where 100<light<300 epoch duration 8192")
	if o.SyntheticCount() != 2 {
		t.Fatalf("after q1,q2: %d synthetic queries, want 2", o.SyntheticCount())
	}
	ch := mustInsert(t, o, 3, "select light where 150<light<500 epoch duration 8192")
	if o.SyntheticCount() != 1 {
		t.Fatalf("after q3: %d synthetic queries, want 1 (recursive merge)", o.SyntheticCount())
	}
	// Both previous synthetic queries aborted, one new injected.
	if len(ch.Abort) != 2 || len(ch.Inject) != 1 {
		t.Fatalf("change = %+v", ch)
	}
	final := ch.Inject[0]
	if final.Epoch != 4096*time.Millisecond {
		t.Fatalf("final epoch = %v", final.Epoch)
	}
	p, ok := final.PredFor(field.AttrLight)
	if !ok {
		t.Fatalf("no light predicate: %v", final)
	}
	if !(p.Min > 100 && p.Min < 100.01 && p.Max > 599.99 && p.Max < 600) {
		t.Fatalf("final pred = %v, want (100,600)", p)
	}
	for _, uid := range []query.ID{1, 2, 3} {
		syn, _ := o.SyntheticFor(uid)
		if !query.Covers(syn, findUser(o, uid)) {
			t.Fatalf("user %d not covered by final synthetic", uid)
		}
	}
}

func TestInsertAggregationPairsMerge(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	ch := mustInsert(t, o, 2, "SELECT MIN(light) WHERE temp > 20 EPOCH DURATION 8192")
	if o.SyntheticCount() != 1 {
		t.Fatalf("same-predicate aggregations must merge: %d", o.SyntheticCount())
	}
	if len(ch.Inject) != 1 || !ch.Inject[0].IsAggregation() {
		t.Fatalf("merged synthetic = %+v", ch.Inject)
	}
}

func TestInsertAggregationDifferentPredsStaySeparate(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	mustInsert(t, o, 2, "SELECT MAX(light) WHERE temp > 30 EPOCH DURATION 4096")
	if o.SyntheticCount() != 2 {
		t.Fatalf("different-predicate aggregations must not merge: %d", o.SyntheticCount())
	}
}

func TestInsertErrors(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	q := query.MustParse("SELECT light")
	q.ID = 0
	if _, err := o.Insert(q); err == nil {
		t.Fatal("zero ID must error")
	}
	q.ID = SyntheticIDBase
	if _, err := o.Insert(q); err == nil {
		t.Fatal("ID in synthetic space must error")
	}
	mustInsert(t, o, 5, "SELECT light")
	q.ID = 5
	if _, err := o.Insert(q); err == nil {
		t.Fatal("duplicate ID must error")
	}
	bad := query.Query{ID: 9} // empty select list
	if _, err := o.Insert(bad); err == nil {
		t.Fatal("invalid query must error")
	}
	// A code the enums do not declare is refused at admission: synthesis
	// indexes per-attribute arrays sized for the declared ones.
	for _, bad := range []query.Query{
		{ID: 10, Attrs: []field.Attr{attrSlots}, Epoch: query.MinEpoch},
		{ID: 11, Aggs: []query.Agg{{Op: query.Avg + 1, Attr: field.AttrLight}}, Epoch: query.MinEpoch},
		{ID: 12, Attrs: []field.Attr{field.AttrLight}, Epoch: query.MinEpoch,
			Preds: []query.Predicate{{Attr: 200, Min: 0, Max: 1}}},
	} {
		if _, err := o.Insert(bad); err == nil {
			t.Fatalf("query %d: undeclared code must error", bad.ID)
		}
	}
	if n := o.UserCount(); n != 1 {
		t.Fatalf("%d user queries after rejected inserts, want 1", n)
	}
}

func TestTerminateLastQueryAborts(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	ch1 := mustInsert(t, o, 1, "SELECT light EPOCH DURATION 4096")
	ch, err := o.Terminate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Abort) != 1 || ch.Abort[0] != ch1.Inject[0].ID {
		t.Fatalf("change = %+v", ch)
	}
	if o.SyntheticCount() != 0 || o.UserCount() != 0 {
		t.Fatal("tables must be empty")
	}
}

func TestTerminateUnknownErrors(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	if _, err := o.Terminate(42); err == nil {
		t.Fatal("unknown ID must error")
	}
}

func TestTerminateCoveredQueryNoChange(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	mustInsert(t, o, 2, "SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	// Terminating the covered query leaves the requirement unchanged.
	ch, err := o.Terminate(2)
	if err != nil {
		t.Fatal(err)
	}
	if !ch.Empty() {
		t.Fatalf("termination of covered query should be invisible: %+v", ch)
	}
	if o.SyntheticCount() != 1 {
		t.Fatalf("synthetic count = %d", o.SyntheticCount())
	}
}

// With a large α the optimizer hides a shrinking termination from the
// network; with α = 0 it must re-optimize.
func TestTerminateAlphaControlsRewrite(t *testing.T) {
	for _, tc := range []struct {
		alpha      float64
		wantChange bool
	}{
		{alpha: 100, wantChange: false},
		{alpha: 1e-9, wantChange: true},
	} {
		o := newTestOptimizer(t, tc.alpha)
		mustInsert(t, o, 1, "SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192")
		mustInsert(t, o, 2, "SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192")
		if o.SyntheticCount() != 1 {
			t.Fatalf("precondition: queries should have merged")
		}
		ch, err := o.Terminate(2)
		if err != nil {
			t.Fatal(err)
		}
		if got := !ch.Empty(); got != tc.wantChange {
			t.Fatalf("alpha=%v: network change = %v, want %v (%+v)", tc.alpha, got, tc.wantChange, ch)
		}
		// Either way, user 1 must still be covered.
		syn, ok := o.SyntheticFor(1)
		if !ok || !query.Covers(syn, findUser(o, 1)) {
			t.Fatal("survivor must remain covered")
		}
	}
}

func TestTerminateReinsertRemerges(t *testing.T) {
	// Three queries merged into one synthetic; terminating one with α=0
	// re-inserts the remaining two, which should re-merge with each other.
	o := newTestOptimizer(t, 1e-9)
	mustInsert(t, o, 1, "SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192")
	mustInsert(t, o, 2, "SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192")
	mustInsert(t, o, 3, "SELECT light WHERE 120 < light AND light < 480 EPOCH DURATION 8192")
	if o.SyntheticCount() != 1 {
		t.Fatalf("precondition: one synthetic, got %d", o.SyntheticCount())
	}
	if _, err := o.Terminate(2); err != nil {
		t.Fatal(err)
	}
	if o.UserCount() != 2 {
		t.Fatalf("user count = %d", o.UserCount())
	}
	for _, uid := range []query.ID{1, 3} {
		syn, ok := o.SyntheticFor(uid)
		if !ok || !query.Covers(syn, findUser(o, uid)) {
			t.Fatalf("user %d lost coverage after reinsert", uid)
		}
	}
}

func TestBenefitAccounting(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192")
	mustInsert(t, o, 2, "SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192")
	gotTotal := o.TotalBenefit()
	wantTotal := o.TotalUserCost() - o.TotalSyntheticCost()
	if math.Abs(gotTotal-wantTotal) > 1e-12 {
		t.Fatalf("benefit bookkeeping drifted: %g vs %g", gotTotal, wantTotal)
	}
	if gotTotal <= 0 {
		t.Fatal("merged workload should have positive benefit")
	}
}

func TestFromList(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	mustInsert(t, o, 1, "SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192")
	mustInsert(t, o, 2, "SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192")
	syn, _ := o.SyntheticFor(1)
	from := o.FromList(syn.ID)
	if len(from) != 2 || from[0] != 1 || from[1] != 2 {
		t.Fatalf("from list = %v", from)
	}
	if got := o.FromList(999); got != nil {
		t.Fatalf("unknown synthetic from list = %v", got)
	}
}

// Invariant check used by the random-workload property test.
func checkInvariants(t interface{ Fatalf(string, ...any) }, o *Optimizer) {
	for _, uq := range o.UserQueries() {
		syn, ok := o.SyntheticFor(uq.ID)
		if !ok {
			t.Fatalf("user %d has no synthetic query", uq.ID)
		}
		if !query.Covers(syn, uq) {
			t.Fatalf("user %d not covered by its synthetic query\nuser: %v\nsyn:  %v", uq.ID, uq, syn)
		}
	}
	// Every synthetic query serves at least one live user and every
	// from-list entry is live.
	live := make(map[query.ID]bool)
	for _, uq := range o.UserQueries() {
		live[uq.ID] = true
	}
	for _, s := range o.SyntheticQueries() {
		from := o.FromList(s.ID)
		if len(from) == 0 {
			t.Fatalf("synthetic %d has empty from list", s.ID)
		}
		for _, uid := range from {
			if !live[uid] {
				t.Fatalf("synthetic %d references dead user %d", s.ID, uid)
			}
		}
	}
}

// Property: after any interleaving of inserts and terminations, every live
// user query is covered by exactly one running synthetic query, and no
// synthetic query outlives its contributors (DESIGN.md invariant 3).
func TestOptimizerInvariantsUnderRandomWorkload(t *testing.T) {
	f := func(ops []uint32, alphaSel uint8) bool {
		alphas := []float64{0, 0.2, 0.6, 1.0, 5}
		o := newTestOptimizerQuick(alphas[int(alphaSel)%len(alphas)])
		nextID := query.ID(1)
		var liveIDs []query.ID
		for _, op := range ops {
			if op%3 != 0 || len(liveIDs) == 0 {
				q := genQueryFromSeed(op, op%5 == 1)
				q.ID = nextID
				nextID++
				if _, err := o.Insert(q); err != nil {
					return false
				}
				liveIDs = append(liveIDs, q.ID)
			} else {
				idx := int(op>>8) % len(liveIDs)
				if _, err := o.Terminate(liveIDs[idx]); err != nil {
					return false
				}
				liveIDs = append(liveIDs[:idx], liveIDs[idx+1:]...)
			}
			ft := &fatalCollector{}
			checkInvariants(ft, o)
			if ft.failed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

type fatalCollector struct{ failed bool }

func (f *fatalCollector) Fatalf(string, ...any) { f.failed = true }

func newTestOptimizerQuick(alpha float64) *Optimizer {
	m, err := cost.NewModel([]int{1, 3, 6, 6}, cost.Config{})
	if err != nil {
		panic(err)
	}
	return NewOptimizer(m, Options{Alpha: alpha})
}

func findUser(o *Optimizer, id query.ID) query.Query {
	for _, q := range o.UserQueries() {
		if q.ID == id {
			return q
		}
	}
	return query.Query{}
}

// Property (DESIGN.md invariant 4): Insert never increases the total
// estimated synthetic cost by more than the new query's own cost — the
// greedy only merges when beneficial.
func TestInsertCostMonotonicityProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) > 24 {
			seeds = seeds[:24]
		}
		o := newTestOptimizerQuick(0.6)
		for i, s := range seeds {
			q := genQueryFromSeed(s, s%4 == 1)
			q.ID = query.ID(i + 1)
			before := o.TotalSyntheticCost()
			qCost := o.Model().Cost(q)
			if _, err := o.Insert(q); err != nil {
				return false
			}
			after := o.TotalSyntheticCost()
			if after > before+qCost+1e-9 {
				return false
			}
			// Total benefit is never negative: merging is at worst a no-op.
			if o.TotalBenefit() < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInsertBatchNetsChanges(t *testing.T) {
	// Three mutually mergeable queries: sequential insertion churns through
	// intermediate synthetic queries; a batch nets to exactly one injection
	// and no abortions.
	qs := []string{
		"SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192",
		"SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192",
		"SELECT light WHERE 120 < light AND light < 480 EPOCH DURATION 8192",
	}
	seq := newTestOptimizer(t, 0.6)
	floods := 0
	for i, s := range qs {
		q := query.MustParse(s)
		q.ID = query.ID(i + 1)
		ch, err := seq.Insert(q)
		if err != nil {
			t.Fatal(err)
		}
		floods += len(ch.Inject) + len(ch.Abort)
	}

	batch := newTestOptimizer(t, 0.6)
	var queries []query.Query
	for i, s := range qs {
		q := query.MustParse(s)
		q.ID = query.ID(i + 1)
		queries = append(queries, q)
	}
	ch, err := batch.Insert(queries...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Inject) != 1 || len(ch.Abort) != 0 {
		t.Fatalf("batch change = %+v", ch)
	}
	if floods <= len(ch.Inject) {
		t.Fatalf("sequential floods (%d) should exceed batch floods (%d)", floods, len(ch.Inject))
	}
	// Same final state either way.
	if batch.SyntheticCount() != seq.SyntheticCount() {
		t.Fatalf("synthetic counts differ: %d vs %d", batch.SyntheticCount(), seq.SyntheticCount())
	}
	checkInvariants(t, batch)
}

func TestInsertBatchPartialFailure(t *testing.T) {
	o := newTestOptimizer(t, 0.6)
	q1 := query.MustParse("SELECT light EPOCH DURATION 4096")
	q1.ID = 1
	bad := query.Query{ID: 2} // invalid
	ch, err := o.Insert(q1, bad)
	if err == nil {
		t.Fatal("invalid query must fail the batch")
	}
	// Every member is checked before any is admitted: q1, which comes first,
	// is not admitted either, and nothing is reported to the network.
	if !ch.Empty() || o.UserCount() != 0 || o.SyntheticCount() != 0 {
		t.Fatalf("partial state: %+v users=%d synthetic=%d", ch, o.UserCount(), o.SyntheticCount())
	}
	checkInvariants(t, o)
}

// Differential soak: after a long random interleaving of inserts and
// terminations, rebuilding the synthetic set from scratch (re-inserting the
// live user queries into a fresh optimizer) must cover everything and cost
// about the same — the incremental state does not rot. Kept-stale synthetic
// queries (the α mechanism) may make the incremental set at most modestly
// more expensive than a fresh greedy pass.
func TestIncrementalMatchesRebuildSoak(t *testing.T) {
	o := newTestOptimizerQuick(0.6)
	rng := sim.NewRand(99)
	var live []query.Query
	nextID := query.ID(1)
	for step := 0; step < 600; step++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			q := genQueryFromSeed(uint32(rng.Intn(1<<30)), rng.Float64() < 0.4)
			q.ID = nextID
			nextID++
			if _, err := o.Insert(q); err != nil {
				t.Fatal(err)
			}
			live = append(live, q)
		} else {
			idx := rng.Intn(len(live))
			if _, err := o.Terminate(live[idx].ID); err != nil {
				t.Fatal(err)
			}
			live = append(live[:idx], live[idx+1:]...)
		}
	}
	checkInvariants(t, o)

	fresh := newTestOptimizerQuick(0.6)
	for _, q := range live {
		if _, err := fresh.Insert(q); err != nil {
			t.Fatal(err)
		}
	}
	incCost := o.TotalSyntheticCost()
	freshCost := fresh.TotalSyntheticCost()
	if incCost > 1.5*freshCost+1e-9 {
		t.Fatalf("incremental state rotted: cost %.5f vs fresh rebuild %.5f", incCost, freshCost)
	}
	if o.UserCount() != fresh.UserCount() {
		t.Fatalf("user counts differ: %d vs %d", o.UserCount(), fresh.UserCount())
	}
}

// Two acquisitions of single (different) nodes on one epoch merge: a point
// predicate has a cost, so the benefit rate of widening to the pair is
// evaluated instead of bailing out on cost(q) = 0.
func TestPointPredicateQueriesMerge(t *testing.T) {
	o := newTestOptimizer(t, DefaultAlpha)
	mustInsert(t, o, 1, "SELECT light WHERE nodeid = 5 EPOCH DURATION 8192")
	ch := mustInsert(t, o, 2, "SELECT light WHERE nodeid = 6 EPOCH DURATION 8192")
	if o.SyntheticCount() != 1 {
		t.Fatalf("synthetic queries = %d, want the two point queries merged into 1", o.SyntheticCount())
	}
	if len(ch.Abort) != 1 || len(ch.Inject) != 1 {
		t.Fatalf("merge must replace the first synthetic query: %+v", ch)
	}
	syn, _ := o.SyntheticFor(1)
	if p, ok := syn.PredFor(field.AttrNodeID); !ok || p.Min != 5 || p.Max != 6 {
		t.Fatalf("merged predicate = %v, want nodeid in [5, 6]", syn.Preds)
	}
	checkInvariants(t, o)

	// And a terminated one does not strand its synthetic query for free:
	// with α = 0 the survivor is re-inserted on its own requirement.
	strict := newTestOptimizer(t, 1e-9)
	mustInsert(t, strict, 1, "SELECT light WHERE nodeid = 5 EPOCH DURATION 8192")
	mustInsert(t, strict, 2, "SELECT light WHERE nodeid = 6 EPOCH DURATION 8192")
	if ch, err := strict.Terminate(2); err != nil || ch.Empty() {
		t.Fatalf("Terminate(2) = %+v, %v; want the widened synthetic query replaced", ch, err)
	}
}

// The contributor costs behind a synthetic query's benefit — the right-hand
// side of the α rule — and behind Explain's shares are summed in ascending
// member ID, so every evaluation yields the same bits (float addition is not
// associative; in map order the last ulps moved from call to call).
func TestBenefitSumIsOrderStable(t *testing.T) {
	o := newTestOptimizer(t, DefaultAlpha)
	for i, s := range []string{
		"SELECT light WHERE light >= 101.3 AND light <= 307.7 EPOCH DURATION 8192",
		"SELECT light WHERE light >= 149.1 AND light <= 511.9 EPOCH DURATION 8192",
		"SELECT light WHERE light >= 203.7 AND light <= 449.3 EPOCH DURATION 8192",
		"SELECT light WHERE light >= 120.9 AND light <= 333.1 EPOCH DURATION 8192",
		"SELECT light WHERE light >= 177.7 AND light <= 470.3 EPOCH DURATION 8192",
	} {
		mustInsert(t, o, query.ID(i+1), s)
	}
	if o.SyntheticCount() != 1 {
		t.Fatalf("precondition: %d synthetic queries, want the five merged into 1", o.SyntheticCount())
	}
	s := o.users[1].syn
	if len(s.members) < 3 {
		t.Fatalf("precondition: %d contributors, want >= 3", len(s.members))
	}
	wantBenefit := math.Float64bits(o.benefitOf(s))
	if math.Float64bits(s.benefit) != wantBenefit {
		t.Fatalf("stored benefit %v != recomputed %v", s.benefit, o.benefitOf(s))
	}
	e0, err := o.Explain(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(o.benefitOf(s)); got != wantBenefit {
			t.Fatalf("call %d: benefit bits %x, want %x", i, got, wantBenefit)
		}
		e, _ := o.Explain(3)
		if math.Float64bits(e.SyntheticShare) != math.Float64bits(e0.SyntheticShare) ||
			math.Float64bits(e.GroupSavings) != math.Float64bits(e0.GroupSavings) {
			t.Fatalf("call %d: Explain shares moved: %v/%v vs %v/%v", i,
				e.SyntheticShare, e.GroupSavings, e0.SyntheticShare, e0.GroupSavings)
		}
	}
	// The same contributors admitted in another order sum to the same bits.
	rev := newTestOptimizer(t, DefaultAlpha)
	if _, err := rev.Insert(s.members[4].q, s.members[2].q, s.members[0].q, s.members[3].q, s.members[1].q); err != nil {
		t.Fatal(err)
	}
	if got := math.Float64bits(rev.TotalBenefit()); rev.SyntheticCount() != 1 || got != math.Float64bits(o.TotalBenefit()) {
		t.Fatalf("admission order changed the benefit: %d synthetic, %v vs %v", rev.SyntheticCount(), rev.TotalBenefit(), o.TotalBenefit())
	}
}

// scan admits syn as the only running synthetic query and returns what the
// Algorithm 1 scan makes of q against it.
func scan(t testing.TB, syn, q query.Query) (best *synthetic, rate float64, covers bool) {
	t.Helper()
	o := newTestOptimizerQuick(DefaultAlpha)
	syn.ID = 1
	if _, err := o.Insert(syn); err != nil {
		t.Fatal(err)
	}
	return o.mostBeneficial(&priced{q: q.Normalize()})
}

// A synthetic query that covers the new one is the scan's answer at a rate of
// exactly 1, flagged as coverage: the new query adds no work to the network.
func TestBenefitRateCoverageIsOne(t *testing.T) {
	syn := query.MustParse("SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	q := query.MustParse("SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	if best, rate, covers := scan(t, syn, q); best == nil || rate != 1 || !covers {
		t.Fatalf("scan = %v, %v, %v; want the covering entry at exactly 1", best, rate, covers)
	}
}

// Two aggregations over different row sets cannot be integrated: no rate, no
// candidate.
func TestBenefitRateNonRewritable(t *testing.T) {
	a := query.MustParse("SELECT MAX(light) WHERE temp > 20")
	b := query.MustParse("SELECT MAX(light) WHERE temp > 30")
	if best, rate, covers := scan(t, b, a); best != nil || rate != 0 || covers {
		t.Fatalf("scan = %v, %v, %v; want nothing for a non-rewritable pair", best, rate, covers)
	}
}

// Property: a benefit rate never exceeds 1 (it is clamped against
// floating-point drift), and coverage always reads as exactly 1 with the flag.
func TestBenefitRateBounds(t *testing.T) {
	f := func(lo1, hi1, lo2, hi2 float64, e1, e2 uint8) bool {
		mk := func(lo, hi float64, e uint8) query.Query {
			lo = math.Mod(math.Abs(lo), 1000)
			hi = lo + math.Mod(math.Abs(hi), 1000-lo+1)
			return query.Query{
				Attrs: []field.Attr{field.AttrLight},
				Preds: []query.Predicate{{Attr: field.AttrLight, Min: lo, Max: hi}},
				Epoch: time.Duration(1+int(e)%12) * query.MinEpoch,
			}.Normalize()
		}
		qi, qj := mk(lo1, hi1, e1), mk(lo2, hi2, e2)
		_, rate, covers := scan(t, qj, qi)
		return rate <= 1 && covers == query.Covers(qj, qi) && (!covers || rate == 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
