package cost_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/query"
)

// The pairwise-merge tests price the synthetic query core.Synthesize builds,
// so they live outside package cost, which core imports.

// fourLevels: base station + 3 sensors at level 1, 6 at level 2, 6 at
// level 3 (15 sensors).
func fourLevels(t *testing.T) *cost.Model {
	t.Helper()
	m, err := cost.NewModel([]int{1, 3, 6, 6}, cost.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pairBenefit is the paper's pairwise benefit (§3.1.2): benefit(q1, q2) =
// cost(q1) + cost(q2) − cost(q12), with q12 the synthetic query
// core.Synthesize builds for the pair, as the optimizer prices a merge.
func pairBenefit(m *cost.Model, q1, q2 query.Query) float64 {
	return m.Cost(q1) + m.Cost(q2) - m.Cost(core.Synthesize([]query.Query{q1, q2}))
}

func TestBenefitSymmetric(t *testing.T) {
	m := fourLevels(t)
	q1 := query.MustParse("SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	q2 := query.MustParse("SELECT light WHERE light >= 200 AND light <= 600 EPOCH DURATION 4096")
	if math.Abs(pairBenefit(m, q1, q2)-pairBenefit(m, q2, q1)) > 1e-12 {
		t.Fatal("benefit should be symmetric")
	}
}

// The §3.1.3 worked example: with uniform light in [0,1000] and unit message
// cost, q1(280,600)@2 and q2(100,300)@4 must NOT merge; q3(150,500)@4 merges
// with q2; the result then merges with q1. We scale epochs 2→4096ms, 4→8192ms
// (ratios preserved).
func TestPaperRewritingExample(t *testing.T) {
	m := fourLevels(t)
	q1 := query.MustParse("select light where 280<light<600 epoch duration 4096")
	q2 := query.MustParse("select light where 100<light<300 epoch duration 8192")
	q3 := query.MustParse("select light where 150<light<500 epoch duration 8192")
	benefit := func(a, b query.Query) float64 { return pairBenefit(m, a, b) }
	// The Beneficial rate of §3.1.3: rate(qi, qj) = benefit(qj, qi) / cost(qi).
	rate := func(qi, qj query.Query) float64 { return benefit(qj, qi) / m.Cost(qi) }

	if b := benefit(q1, q2); b >= 0 {
		t.Fatalf("benefit(q1,q2) = %f, want < 0 (paper: 320/2+200/4-500/2 < 0)", b)
	}
	if b := benefit(q2, q3); b <= 0 {
		t.Fatalf("benefit(q2,q3) = %f, want > 0 (paper: 200/4+350/4-400/4 > 0)", b)
	}
	// The paper claims benefit(q1',q3) < 0, but its own formula gives
	// d/L·(320/2 + 350/4 − 450/2) = +22.5·d/L (the union of (280,600) and
	// (150,500) is (150,600), width 450 — the paper's "350/2" is a typo).
	// The greedy outcome is unchanged because the benefit *rate* against q2'
	// (37.5/87.5) beats q1' (22.5/87.5), so q3 still merges with q2'.
	if rate(q3, q1) >= rate(q3, q2) {
		t.Fatalf("greedy must prefer q2': rate(q3,q1)=%f, rate(q3,q2)=%f", rate(q3, q1), rate(q3, q2))
	}
	q23 := core.Synthesize([]query.Query{q2, q3})
	if b := benefit(q1, q23); b <= 0 {
		t.Fatalf("benefit(q1,q2'') = %f, want > 0 (paper: 320/2+400/4-500/2 > 0)", b)
	}
	final := core.Synthesize([]query.Query{q1, q23})
	// Final: light in (100,600), epoch 4096ms.
	if len(final.Preds) != 1 {
		t.Fatalf("final preds = %v", final.Preds)
	}
	p := final.Preds[0]
	if !(p.Min > 100 && p.Min < 100.01 && p.Max > 599.99 && p.Max < 600) {
		t.Fatalf("final pred = %v, want (100,600)", p)
	}
	if final.Epoch != 4096*time.Millisecond {
		t.Fatalf("final epoch = %v, want 4096ms", final.Epoch)
	}
}
