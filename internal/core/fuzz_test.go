package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// An optimizer script is one operation per line, named by its first byte:
// "+ <query>" inserts the query under the next ID; "* <query>" adds it to
// the pending batch, which one Insert admits before the next non-batch
// line (and at the end); "= <n> <query>" adds it to the pending batch under
// an ID already taken, the (n mod k)-th of the k live IDs (oldest first) and
// pending batch IDs, so that the whole batch must be rejected; "- <n>"
// terminates the (n mod live)-th live query, oldest first; "~ <attr>
// <value>" folds one reading into the cost model's histograms, so the
// estimates the next operations decide on have moved. Lines that do not
// parse are skipped, so any mutation is a valid script.
const maxScriptOps = 1500

// scriptOf renders a timed workload as a script: arrivals and departures in
// time order, every arrival admitted by `op` ('+' or '*').
func scriptOf(ws []workload.TimedQuery, op byte) string {
	type ev struct {
		at     time.Duration
		depart bool
		i      int
	}
	var evs []ev
	for i, w := range ws {
		evs = append(evs, ev{w.Arrive, false, i})
		if w.Depart > 0 {
			evs = append(evs, ev{w.Depart, true, i})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var sb strings.Builder
	var live []int
	for _, e := range evs {
		if !e.depart {
			fmt.Fprintf(&sb, "%c %s\n", op, ws[e.i].Query)
			live = append(live, e.i)
			continue
		}
		for k, i := range live {
			if i == e.i {
				fmt.Fprintf(&sb, "- %d\n", k)
				live = append(live[:k], live[k+1:]...)
				break
			}
		}
	}
	return sb.String()
}

// regionScript interleaves region aggregates — the shape the serving tiers
// send down, single-sensor pieces included — with §4.3 acquisitions.
func regionScript() string {
	var sb strings.Builder
	for i := 0; i < 24; i++ {
		lo := 1 + (i*5)%40
		hi := lo + []int{0, 3, 7, 15}[i%4]
		fmt.Fprintf(&sb, "%c SELECT SUM(light), COUNT(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %dms\n",
			"+*"[i%2], lo, hi, 2048<<(i%3))
		if i%3 == 0 {
			fmt.Fprintf(&sb, "+ SELECT nodeid, light WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION 4096ms\n", lo, hi+4)
		}
		if i%4 == 3 {
			fmt.Fprintf(&sb, "- %d\n", i)
		}
	}
	return sb.String()
}

// observed returns script with skewed readings between its operations: light
// piled up at the dark end, temp around 70, the low node ids — histograms far
// from the uniform ones a fresh model starts with, and moving all the time.
func observed(script string, seed int64) string {
	rng := sim.NewRand(seed)
	var sb strings.Builder
	for _, line := range strings.SplitAfter(script, "\n") {
		sb.WriteString(line)
		u := rng.Float64()
		fmt.Fprintf(&sb, "~ light %.1f\n~ temp %.1f\n~ nodeid %d\n", 1000*u*u*u, 60+20*rng.Float64(), 1+rng.Intn(6))
	}
	return sb.String()
}

// firstOps returns the first n lines of script.
func firstOps(script string, n int) string {
	lines := strings.SplitAfter(script, "\n")
	return strings.Join(lines[:min(n, len(lines))], "")
}

// sameQuery is field-by-field identity, ID included; a nil list equals an
// empty one.
func sameQuery(a, b query.Query) bool {
	return a.ID == b.ID && a.Epoch == b.Epoch && a.Lifetime == b.Lifetime && a.GroupBy.Equal(b.GroupBy) &&
		slices.Equal(a.Attrs, b.Attrs) && slices.Equal(a.Aggs, b.Aggs) &&
		slices.Equal(a.Wins, b.Wins) && slices.Equal(a.Preds, b.Preds)
}

// duo drives the optimizer and the reference optimizer (optimizer_ref_test.go)
// through the same operations, each over its own cost model fed the same
// readings, and after every operation requires the same Change, the same
// tables and the same floats of both, on top of the optimizer's own
// invariants.
type duo struct {
	t    testing.TB
	o    *Optimizer
	ref  *refOptimizer
	live []query.ID // oldest first
}

func newDuo(t testing.TB, levels []int, alpha float64) *duo {
	t.Helper()
	model := func() *cost.Model {
		m, err := cost.NewModel(levels, cost.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return &duo{t: t, o: NewOptimizer(model(), Options{Alpha: alpha}), ref: newRefOptimizer(model(), Options{Alpha: alpha})}
}

func (d *duo) observe(a field.Attr, v float64) {
	d.o.model.Observe(a, v)
	d.ref.model.Observe(a, v)
}

// admit inserts qs — as one batch, or one by one — and checks DESIGN.md §5
// invariant 4 (an admission never raises the total estimated cost by more
// than the admitted queries' own) and invariant 17 (a rejected admission
// changes nothing). A batch is rejected exactly when it reuses an ID.
func (d *duo) admit(batch bool, qs ...query.Query) {
	d.t.Helper()
	before := d.o.TotalSyntheticCost()
	syn, users := d.o.SyntheticQueries(), d.o.UserQueries()
	var own float64
	for _, q := range qs {
		own += d.o.model.Cost(q)
	}
	if batch {
		got, err := d.o.Insert(qs...)
		want, refErr := d.ref.Insert(qs...)
		op := fmt.Sprintf("Insert(%v)", qs)
		if reused := d.reuses(qs); (err != nil) != reused || (refErr != nil) != reused {
			d.t.Fatalf("%s: %v (reference: %v), want an error: %v", op, err, refErr, reused)
		}
		d.same(op, got, want)
		if err != nil {
			if !got.Empty() || !slices.EqualFunc(d.o.SyntheticQueries(), syn, sameQuery) || !slices.EqualFunc(d.o.UserQueries(), users, sameQuery) {
				d.t.Fatalf("%s: rejected, yet changed %+v and the tables", op, got)
			}
			return
		}
	} else {
		for _, q := range qs {
			got, err := d.o.Insert(q)
			want, refErr := d.ref.Insert(q)
			if err != nil || refErr != nil {
				d.t.Fatalf("Insert(%v): %v (reference: %v)", q, err, refErr)
			}
			d.same(fmt.Sprintf("Insert(%v)", q), got, want)
		}
	}
	for _, q := range qs {
		d.live = append(d.live, q.ID)
	}
	if after := d.o.TotalSyntheticCost(); after > before+own+1e-9 {
		d.t.Fatalf("admitting %v raised the synthetic cost %v → %v, more than their own %v", qs, before, after, own)
	}
}

// reuses reports whether an ID of qs is live or repeats within qs.
func (d *duo) reuses(qs []query.Query) bool {
	for i, q := range qs {
		if slices.Contains(d.live, q.ID) || slices.ContainsFunc(qs[:i], func(p query.Query) bool { return p.ID == q.ID }) {
			return true
		}
	}
	return false
}

// terminate ends the k-th live query, oldest first.
func (d *duo) terminate(k int) {
	d.t.Helper()
	id := d.live[k]
	d.live = slices.Delete(d.live, k, k+1)
	got, err := d.o.Terminate(id)
	want, refErr := d.ref.Terminate(id)
	if err != nil || refErr != nil {
		d.t.Fatalf("Terminate(%d): %v (reference: %v)", id, err, refErr)
	}
	d.same(fmt.Sprintf("Terminate(%d)", id), got, want)
}

// same holds the two optimizers against each other after operation op.
func (d *duo) same(op string, got, want Change) {
	d.t.Helper()
	if !slices.Equal(got.Abort, want.Abort) || !slices.EqualFunc(got.Inject, want.Inject, sameQuery) {
		d.t.Fatalf("%s: change %+v, reference %+v", op, got, want)
	}
	o, ref := d.o, d.ref
	if len(o.syn) != len(ref.syn) || len(o.users) != len(ref.users) {
		d.t.Fatalf("%s: %d synthetic / %d user queries, reference %d / %d", op, len(o.syn), len(o.users), len(ref.syn), len(ref.users))
	}
	for _, s := range o.syn {
		rs := ref.syn[s.id]
		if rs == nil || !sameQuery(s.q, rs.q) {
			d.t.Fatalf("%s: synthetic %v, reference %+v", op, s.q, rs)
		}
		if !slices.EqualFunc(s.members, rs.members, func(u *user, rq query.Query) bool { return sameQuery(u.q, rq) }) {
			d.t.Fatalf("%s: synthetic %d from-list %v, reference %v", op, s.id, o.FromList(s.id), rs.members)
		}
		if math.Float64bits(s.benefit) != math.Float64bits(rs.benefit) {
			d.t.Fatalf("%s: synthetic %d benefit %v, reference %v", op, s.id, s.benefit, rs.benefit)
		}
	}
	for name, f := range map[string][2]func() float64{
		"TotalUserCost":      {o.TotalUserCost, ref.TotalUserCost},
		"TotalSyntheticCost": {o.TotalSyntheticCost, ref.TotalSyntheticCost},
		"TotalBenefit":       {o.TotalBenefit, ref.TotalBenefit},
	} {
		if a, b := f[0](), f[1](); math.Float64bits(a) != math.Float64bits(b) {
			d.t.Fatalf("%s: %s %v, reference %v", op, name, a, b)
		}
	}
	checkInvariants(d.t, o)
	checkDerivedState(d.t, o)
}

// run executes a script.
func (d *duo) run(script string) {
	d.t.Helper()
	var batch []query.Query
	nextID := query.ID(1)
	flush := func() {
		if len(batch) > 0 {
			d.admit(true, batch...)
			batch = nil
		}
	}
	parse := func(text string) (query.Query, bool) {
		q, err := query.Parse(text)
		if err != nil {
			return q, false
		}
		q.ID = nextID
		nextID++
		return q, true
	}
	ops := 0
	for _, line := range strings.Split(script, "\n") {
		if ops++; ops > maxScriptOps {
			break
		}
		line = strings.TrimSpace(line)
		if len(line) < 2 {
			continue
		}
		arg := strings.TrimSpace(line[1:])
		switch line[0] {
		case '*':
			if q, ok := parse(arg); ok {
				batch = append(batch, q)
			}
		case '=':
			n, text, _ := strings.Cut(arg, " ")
			k, err := strconv.ParseUint(n, 10, 32)
			q, perr := query.Parse(text)
			taken := slices.Clone(d.live)
			for _, p := range batch {
				taken = append(taken, p.ID)
			}
			if err == nil && perr == nil && len(taken) > 0 {
				q.ID = taken[k%uint64(len(taken))]
				batch = append(batch, q)
			}
		case '+':
			flush()
			if q, ok := parse(arg); ok {
				d.admit(false, q)
			}
		case '-':
			flush()
			if n, err := strconv.ParseUint(arg, 10, 32); err == nil && len(d.live) > 0 {
				d.terminate(int(n % uint64(len(d.live))))
			}
		case '~':
			name, val, _ := strings.Cut(arg, " ")
			a, err := field.ParseAttr(name)
			v, verr := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err == nil && verr == nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
				d.observe(a, v)
			}
		}
	}
	flush()
	if d.o.UserCount() != len(d.live) {
		d.t.Fatalf("%d users live, optimizer holds %d", len(d.live), d.o.UserCount())
	}
}

// checkDerivedState asserts DESIGN.md §5 invariant 9 — everything tier 1
// keeps per synthetic query equals a recomputation from the user table — and
// the benefit accounting identity.
func checkDerivedState(t testing.TB, o *Optimizer) {
	t.Helper()
	// A benefit is priced at the histograms of its synthetic query's last
	// setMembers. Once they have moved, only the reference optimizer — which
	// priced its own at the same moments — says what it must be (duo.same).
	static := o.model.Generation() == 0
	members := map[*synthetic][]*user{}
	for _, id := range sortedIDs(o.users) {
		u := o.users[id]
		if u.syn == nil || u.q.ID != id {
			t.Fatalf("user %d: entry %+v", id, u)
		}
		members[u.syn] = append(members[u.syn], u)
	}
	if len(members) != len(o.syn) {
		t.Fatalf("%d synthetic queries serve the %d users, table holds %d", len(members), len(o.users), len(o.syn))
	}
	for i, s := range o.syn {
		if i > 0 && o.syn[i-1].id >= s.id || s.q.ID != s.id {
			t.Fatalf("synthetic table out of ID order at %d: %d (query %d)", i, s.id, s.q.ID)
		}
		want := members[s]
		if !reflect.DeepEqual(s.members, want) {
			t.Fatalf("synthetic %d: members %v, recomputed %v", s.id, o.FromList(s.id), want)
		}
		var sum float64
		for _, u := range want {
			if plan := compilePlan(s.q, u.q); !reflect.DeepEqual(u.plan, plan) {
				t.Fatalf("synthetic %d member %d: plan %+v, recompiled %+v", s.id, u.q.ID, u.plan, plan)
			}
			sum += o.model.Cost(u.q)
		}
		if benefit := sum - o.model.Cost(s.q); static && math.Float64bits(s.benefit) != math.Float64bits(benefit) {
			t.Fatalf("synthetic %d: benefit %v, recomputed %v", s.id, s.benefit, benefit)
		}
	}
	user, syn, benefit := o.TotalUserCost(), o.TotalSyntheticCost(), o.TotalBenefit()
	if static && math.Abs(benefit-(user-syn)) > 1e-9*math.Max(1, user) {
		t.Fatalf("Σ benefit = %v, Σ cost(user) − Σ cost(synthetic) = %v", benefit, user-syn)
	}
}

var fuzzAlphas = []float64{1e-9, 0.2, 0.6, 1.0, 5}

// FuzzOptimizerOps runs random Insert (one query or a batch) / Terminate
// interleavings, with the histograms moving in between, on the optimizer and
// the reference optimizer side by side, and checks after every operation:
// identical Changes, tables, from-lists and floats (duo.same); DESIGN.md §5
// invariant 3 (every live user query is served by exactly one running
// synthetic query that covers it; none outlives its contributors), invariant
// 4 (an admission never raises the total estimated cost by more than the
// admitted queries' own), the benefit identity, and invariant 9 (member lists,
// compiled mapping plans and benefits equal a from-scratch recomputation).
func FuzzOptimizerOps(f *testing.F) {
	// Each workload script seeds only its first few operations: the whole
	// replays are in TestOptimizerScripts.
	for i, ws := range [][]workload.TimedQuery{workload.A(), workload.B(), workload.C()} {
		f.Add(uint8(2), firstOps(scriptOf(ws, '+'), 3)+"- 1\n")
		f.Add(uint8(0), firstOps(scriptOf(ws, '*'), 3))
		f.Add(uint8(i), firstOps(observed(scriptOf(ws, '+'), int64(i)), 8))
	}
	random := scriptOf(workload.Random(workload.RandomConfig{Seed: 1, NumQueries: 120}), '+')
	f.Add(uint8(2), firstOps(random, 4))
	f.Add(uint8(2), firstOps(observed(random, 7), 8))
	f.Add(uint8(0), firstOps(observed(random, 8), 8))
	f.Add(uint8(4), firstOps(scriptOf(workload.Random(workload.RandomConfig{Seed: 2, NumQueries: 120, TargetConcurrency: 24}), '+'), 4))
	f.Add(uint8(1), firstOps(scriptOf(workload.Selectivity(workload.SelectivityConfig{Seed: 3, Selectivity: 0.6, AggFraction: 0.5}), '+'), 4))
	f.Add(uint8(3), firstOps(regionScript(), 4))
	f.Add(uint8(1), firstOps(observed(regionScript(), 9), 8))
	f.Add(uint8(2), "+ SELECT light WHERE nodeid = 5 EPOCH DURATION 8192ms\n~ nodeid 5\n~ nodeid 5\n+ SELECT light WHERE nodeid = 6 EPOCH DURATION 8192ms\n- 1\n")
	f.Add(uint8(2), "* SELECT WINAVG(light, 4, 2) EPOCH DURATION 2048ms\n* SELECT WINMAX(temp, 4) EPOCH DURATION 2048ms\n- 0\n")
	// Rejected batches: one colliding with a live ID, one repeating an ID.
	f.Add(uint8(2), "+ SELECT light EPOCH DURATION 4096ms\n* SELECT temp EPOCH DURATION 4096ms\n= 0 SELECT light WHERE light > 100 EPOCH DURATION 4096ms\n+ SELECT MAX(temp) EPOCH DURATION 8192ms\n- 0\n")
	f.Add(uint8(2), "* SELECT light EPOCH DURATION 4096ms\n* SELECT temp EPOCH DURATION 4096ms\n= 2 SELECT light WHERE light > 100 EPOCH DURATION 4096ms\n* SELECT MAX(light) EPOCH DURATION 4096ms\n- 0\n")

	topo, err := topology.PaperGrid(8)
	if err != nil {
		f.Fatal(err)
	}
	levels := topo.LevelSizes()

	f.Fuzz(func(t *testing.T, alphaSel uint8, script string) {
		newDuo(t, levels, fuzzAlphas[int(alphaSel)%len(fuzzAlphas)]).run(script)
	})
}

// TestOptimizerScripts runs FuzzOptimizerOps' checks on the workload
// scripts: the paper's workloads, the region script, the §4.3 random
// workloads of 120 queries and a selectivity mix, several with moving
// histograms. Up to a thousand operations each, they are too long to seed
// the fuzzer with: every input it finds new coverage on is minimized, and
// minimizing one of that length takes the whole fuzzing budget.
func TestOptimizerScripts(t *testing.T) {
	topo, err := topology.PaperGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	type script struct {
		alpha  float64
		script string
	}
	var scripts []script
	for i, ws := range [][]workload.TimedQuery{workload.A(), workload.B(), workload.C()} {
		scripts = append(scripts,
			script{0.6, scriptOf(ws, '+') + "- 1\n- 0\n- 5\n"},
			script{1e-9, scriptOf(ws, '*')},
			script{fuzzAlphas[i], observed(scriptOf(ws, '+')+"- 1\n- 0\n- 5\n", int64(i))})
	}
	random := scriptOf(workload.Random(workload.RandomConfig{Seed: 1, NumQueries: 120}), '+')
	scripts = append(scripts,
		script{0.6, random},
		script{0.6, observed(random, 7)},
		script{1e-9, observed(random, 8)},
		script{5, scriptOf(workload.Random(workload.RandomConfig{Seed: 2, NumQueries: 120, TargetConcurrency: 24}), '+')},
		script{0.2, scriptOf(workload.Selectivity(workload.SelectivityConfig{Seed: 3, Selectivity: 0.6, AggFraction: 0.5}), '+')},
		script{1.0, regionScript()},
		script{0.2, observed(regionScript(), 9)},
	)
	for _, s := range scripts {
		newDuo(t, topo.LevelSizes(), s.alpha).run(s.script)
	}
}

// TestOptimizerMatchesReference is the differential without the fuzzer: the
// paper's workloads, the §4.3 random workload, the region script and the
// churn mix (BenchmarkOptimizerSwap's: 36 live, terminate-oldest and
// insert-next, a round of readings in between — enough of them that the
// histograms decay) at every α, each with and without moving histograms.
func TestOptimizerMatchesReference(t *testing.T) {
	topo, err := topology.PaperGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	scripts := []string{
		scriptOf(workload.A(), '+'), scriptOf(workload.B(), '*'), scriptOf(workload.C(), '+'),
		regionScript(),
	}
	for seed := int64(1); seed <= 3; seed++ {
		scripts = append(scripts, scriptOf(workload.Random(workload.RandomConfig{Seed: seed, NumQueries: 120, TargetConcurrency: 8 * int(seed)}), '+'))
	}
	for _, alpha := range fuzzAlphas {
		for i, script := range scripts {
			newDuo(t, topo.LevelSizes(), alpha).run(script)
			newDuo(t, topo.LevelSizes(), alpha).run(observed(script, int64(i)))
		}
		d := newDuo(t, swapLevels(t), alpha)
		rng := sim.NewRand(1)
		for i, q := range churnStream(400) {
			if i >= swapLive {
				observeRound(rng, d.observe)
				d.terminate(0)
				observeRound(rng, d.observe)
			}
			d.admit(false, q)
		}
	}
}
