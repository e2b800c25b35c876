package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/topology"
	"repro/internal/workload"
)

// An optimizer script is one operation per line, named by its first byte:
// "+ <query>" inserts the query under the next ID; "* <query>" adds it to
// the pending batch, which one InsertBatch admits before the next non-batch
// line (and at the end); "- <n>" terminates the (n mod live)-th live query,
// oldest first. Lines that do not parse are skipped, so any mutation is a
// valid script.
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

// checkDerivedState asserts DESIGN.md §5 invariant 9 — everything tier 1
// keeps per synthetic query equals a recomputation from the user table — and
// the benefit accounting identity.
func checkDerivedState(t *testing.T, o *Optimizer) {
	t.Helper()
	members := map[query.ID][]query.Query{}
	for _, id := range sortedIDs(o.users) {
		sid, ok := o.userSyn[id]
		if !ok {
			t.Fatalf("user %d has no synthetic query", id)
		}
		members[sid] = append(members[sid], o.users[id])
	}
	if len(members) != len(o.syn) || len(o.userSyn) != len(o.users) {
		t.Fatalf("%d synthetic queries serve %d users, table holds %d and %d", len(members), len(o.users), len(o.syn), len(o.userSyn))
	}
	for sid, want := range members {
		s, ok := o.syn[sid]
		if !ok {
			t.Fatalf("users point at synthetic query %d, which is not running", sid)
		}
		if !reflect.DeepEqual(s.members, want) {
			t.Fatalf("synthetic %d: members %v, recomputed %v", sid, s.members, want)
		}
		var sum float64
		plan := make([]memberPlan, len(want))
		for i, uq := range want {
			plan[i] = compilePlan(s.q, uq)
			sum += o.model.Cost(uq)
		}
		if !reflect.DeepEqual(s.plan, plan) {
			t.Fatalf("synthetic %d: plan %+v, recompiled %+v", sid, s.plan, plan)
		}
		if benefit := sum - o.model.Cost(s.q); math.Float64bits(s.benefit) != math.Float64bits(benefit) {
			t.Fatalf("synthetic %d: benefit %v, recomputed %v", sid, s.benefit, benefit)
		}
	}
	user, syn, benefit := o.TotalUserCost(), o.TotalSyntheticCost(), o.TotalBenefit()
	if math.Abs(benefit-(user-syn)) > 1e-9*math.Max(1, user) {
		t.Fatalf("Σ benefit = %v, Σ cost(user) − Σ cost(synthetic) = %v", benefit, user-syn)
	}
}

// FuzzOptimizerOps runs random Insert / InsertBatch / Terminate
// interleavings and checks after every operation: DESIGN.md §5 invariant 3
// (every live user query is served by exactly one running synthetic query
// that covers it; none outlives its contributors), invariant 4 (an admission
// never raises the total estimated cost by more than the admitted queries'
// own), the benefit identity, and invariant 9 (member lists and compiled
// mapping plans equal a from-scratch recomputation).
func FuzzOptimizerOps(f *testing.F) {
	for _, ws := range [][]workload.TimedQuery{workload.A(), workload.B(), workload.C()} {
		f.Add(uint8(2), scriptOf(ws, '+')+"- 1\n- 0\n- 5\n")
		f.Add(uint8(0), scriptOf(ws, '*'))
	}
	f.Add(uint8(2), scriptOf(workload.Random(workload.RandomConfig{Seed: 1, NumQueries: 120}), '+'))
	f.Add(uint8(4), scriptOf(workload.Random(workload.RandomConfig{Seed: 2, NumQueries: 120, TargetConcurrency: 24}), '+'))
	f.Add(uint8(1), scriptOf(workload.Selectivity(workload.SelectivityConfig{Seed: 3, Selectivity: 0.6, AggFraction: 0.5}), '+'))
	f.Add(uint8(3), regionScript())
	f.Add(uint8(2), "+ SELECT light WHERE nodeid = 5 EPOCH DURATION 8192ms\n+ SELECT light WHERE nodeid = 6 EPOCH DURATION 8192ms\n- 1\n")
	f.Add(uint8(2), "* SELECT WINAVG(light, 4, 2) EPOCH DURATION 2048ms\n* SELECT WINMAX(temp, 4) EPOCH DURATION 2048ms\n- 0\n")

	topo, err := topology.PaperGrid(8)
	if err != nil {
		f.Fatal(err)
	}
	levels := topo.LevelSizes()

	f.Fuzz(func(t *testing.T, alphaSel uint8, script string) {
		model, err := cost.NewModel(levels, cost.Config{})
		if err != nil {
			t.Fatal(err)
		}
		alphas := []float64{1e-9, 0.2, 0.6, 1.0, 5}
		o := NewOptimizer(model, Options{Alpha: alphas[int(alphaSel)%len(alphas)]})

		var live []query.ID
		var batch []query.Query
		nextID := query.ID(1)
		admit := func(qs []query.Query, insert func() error) {
			before := o.TotalSyntheticCost()
			var own float64
			for _, q := range qs {
				own += model.Cost(q)
			}
			if err := insert(); err != nil {
				t.Fatalf("admitting %v: %v", qs, err)
			}
			for _, q := range qs {
				live = append(live, q.ID)
			}
			if after := o.TotalSyntheticCost(); after > before+own+1e-9 {
				t.Fatalf("admitting %v raised the synthetic cost %v → %v, more than their own %v", qs, before, after, own)
			}
			checkInvariants(t, o)
			checkDerivedState(t, o)
		}
		flush := func() {
			if len(batch) == 0 {
				return
			}
			qs := batch
			batch = nil
			admit(qs, func() error { _, err := o.InsertBatch(qs); return err })
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
			case '+':
				flush()
				if q, ok := parse(arg); ok {
					admit([]query.Query{q}, func() error { _, err := o.Insert(q); return err })
				}
			case '-':
				flush()
				n, err := strconv.ParseUint(arg, 10, 32)
				if err != nil || len(live) == 0 {
					continue
				}
				k := int(n % uint64(len(live)))
				if _, err := o.Terminate(live[k]); err != nil {
					t.Fatalf("Terminate(%d): %v", live[k], err)
				}
				live = append(live[:k], live[k+1:]...)
				checkInvariants(t, o)
				checkDerivedState(t, o)
			}
		}
		flush()
		if o.UserCount() != len(live) {
			t.Fatalf("%d users live, optimizer holds %d", len(live), o.UserCount())
		}
	})
}
