package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/query"
)

// fourLevels: base station + 3 sensors at level 1, 6 at level 2, 6 at
// level 3 (15 sensors).
func fourLevels(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel([]int{1, 3, 6, 6}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, Config{}); err == nil {
		t.Fatal("empty levelSizes should error")
	}
	if _, err := NewModel([]int{2, 3}, Config{}); err == nil {
		t.Fatal("levelSizes[0] != 1 should error")
	}
}

func TestHistogramUniformSelectivity(t *testing.T) {
	h := NewHistogram(field.AttrLight, 0, 1000, 64)
	cases := []struct {
		min, max, want float64
	}{
		{0, 1000, 1},
		{0, 500, 0.5},
		{250, 750, 0.5},
		{-100, 2000, 1}, // clamped to the range
		{900, 910, 0.01},
		{500, 400, 0}, // empty
	}
	for _, c := range cases {
		got := h.Selectivity(c.min, c.max)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("sel[%f,%f] = %f, want %f", c.min, c.max, got, c.want)
		}
	}
}

func TestHistogramObserveShiftsMass(t *testing.T) {
	h := NewHistogram(field.AttrLight, 0, 1000, 10)
	before := h.Selectivity(0, 100)
	for i := 0; i < 1000; i++ {
		h.Observe(50)
	}
	after := h.Selectivity(0, 100)
	if after <= before {
		t.Fatalf("observing mass at 50 should raise sel[0,100]: %f -> %f", before, after)
	}
	if after < 0.9 {
		t.Fatalf("sel[0,100] = %f after 1000 observations at 50", after)
	}
}

func TestHistogramObserveOutOfRangeClamps(t *testing.T) {
	h := NewHistogram(field.AttrTemp, 0, 100, 4)
	h.Observe(-50)
	h.Observe(500)
	// Mass lands in the edge buckets rather than being lost.
	if h.Selectivity(0, 100) != 1 {
		t.Fatal("full-range selectivity must stay 1")
	}
}

func TestSelectivityIndependence(t *testing.T) {
	m := fourLevels(t)
	preds := []query.Predicate{
		{Attr: field.AttrLight, Min: 0, Max: 500}, // 0.5
		{Attr: field.AttrTemp, Min: 0, Max: 25},   // 0.25
	}
	got := m.Selectivity(preds)
	if math.Abs(got-0.125) > 1e-9 {
		t.Fatalf("selectivity = %f, want 0.125", got)
	}
	if m.Selectivity(nil) != 1 {
		t.Fatal("no predicates means selectivity 1")
	}
}

func TestResultRateEq1(t *testing.T) {
	m := fourLevels(t)
	q := query.MustParse("SELECT light WHERE light >= 0 AND light <= 500 EPOCH DURATION 4096")
	// sel=0.5, |N_2|=6, epoch=4.096s → 0.5*6/4.096.
	want := 0.5 * 6 / 4.096
	if got := m.ResultRate(q, 2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("result rate = %f, want %f", got, want)
	}
	if m.ResultRate(q, 0) != 0 {
		t.Fatal("base station generates no results")
	}
	if m.ResultRate(q, 99) != 0 {
		t.Fatal("levels beyond maxDepth generate no results")
	}
}

func TestTransAcquisitionEq2(t *testing.T) {
	m := fourLevels(t)
	q := query.MustParse("SELECT light EPOCH DURATION 2048")
	// sel=1: Σ k·|N_k|/epoch = (1·3 + 2·6 + 3·6)/2.048 = 33/2.048.
	want := 33.0 / 2.048
	if got := m.Trans(q); math.Abs(got-want) > 1e-9 {
		t.Fatalf("trans = %f, want %f", got, want)
	}
}

func TestTransAggregationLowerBound(t *testing.T) {
	m := fourLevels(t)
	q := query.MustParse("SELECT MAX(light) EPOCH DURATION 2048")
	// Lower bound: sel·|N|/epoch = 15/2.048 (every generating node transmits
	// exactly once).
	want := 15.0 / 2.048
	if got := m.Trans(q); math.Abs(got-want) > 1e-9 {
		t.Fatalf("agg trans = %f, want %f", got, want)
	}
	acq := query.MustParse("SELECT light EPOCH DURATION 2048")
	if m.Trans(q) >= m.Trans(acq) {
		t.Fatal("aggregation lower bound must be below acquisition Eq.2")
	}
}

func TestCostEq3(t *testing.T) {
	m := fourLevels(t)
	q := query.MustParse("SELECT light EPOCH DURATION 2048")
	perMsg := DefaultCstart.Seconds() + DefaultCtrans.Seconds()*float64(MsgLen(q))
	want := m.Trans(q) * perMsg
	if got := m.Cost(q); math.Abs(got-want) > 1e-12 {
		t.Fatalf("cost = %g, want %g", got, want)
	}
}

func TestMsgLen(t *testing.T) {
	acq := query.MustParse("SELECT light, temp")
	if got := MsgLen(acq); got != HeaderBytes+2*BytesPerAttr {
		t.Fatalf("acq len = %d", got)
	}
	agg := query.MustParse("SELECT MAX(light), MIN(light), AVG(temp)")
	if got := MsgLen(agg); got != HeaderBytes+3*BytesPerAgg {
		t.Fatalf("agg len = %d", got)
	}
}

func TestCostMonotonicity(t *testing.T) {
	m := fourLevels(t)
	narrow := query.MustParse("SELECT light WHERE light >= 0 AND light <= 100 EPOCH DURATION 4096")
	wide := query.MustParse("SELECT light WHERE light >= 0 AND light <= 900 EPOCH DURATION 4096")
	if m.Cost(narrow) >= m.Cost(wide) {
		t.Fatal("wider predicate must cost at least as much")
	}
	slow := query.MustParse("SELECT light EPOCH DURATION 8192")
	fast := query.MustParse("SELECT light EPOCH DURATION 2048")
	if m.Cost(slow) >= m.Cost(fast) {
		t.Fatal("shorter epoch must cost more")
	}
}

func TestAvgDepth(t *testing.T) {
	m := fourLevels(t)
	// (1·3 + 2·6 + 3·6)/15 = 33/15 = 2.2
	if got := m.AvgDepth(); math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("avg depth = %f, want 2.2", got)
	}
	if m.Sensors() != 15 {
		t.Fatalf("sensors = %d, want 15", m.Sensors())
	}
}

func TestObserveRefinesSelectivity(t *testing.T) {
	m := fourLevels(t)
	before := m.Selectivity([]query.Predicate{{Attr: field.AttrLight, Min: 0, Max: 100}})
	for i := 0; i < 500; i++ {
		m.Observe(field.AttrLight, 50)
	}
	after := m.Selectivity([]query.Predicate{{Attr: field.AttrLight, Min: 0, Max: 100}})
	if after <= before {
		t.Fatal("Observe should shift estimated selectivity")
	}
}

// Exponential decay: after a distribution shift, the histogram tracks the
// new distribution instead of averaging over its whole history.
func TestHistogramDecayTracksDrift(t *testing.T) {
	h := NewHistogram(field.AttrLight, 0, 1000, 10)
	// Phase 1: mass at 100.
	for i := 0; i < 3*decayEveryDefault; i++ {
		h.Observe(100)
	}
	if s := h.Selectivity(0, 200); s < 0.9 {
		t.Fatalf("phase 1 sel = %f", s)
	}
	// Phase 2: the phenomenon moves to 900.
	for i := 0; i < 3*decayEveryDefault; i++ {
		h.Observe(900)
	}
	hi := h.Selectivity(800, 1000)
	lo := h.Selectivity(0, 200)
	if hi < 0.8 {
		t.Fatalf("after drift, sel[800,1000] = %f, want ≥ 0.8", hi)
	}
	if lo > 0.2 {
		t.Fatalf("after drift, stale sel[0,200] = %f, want ≤ 0.2", lo)
	}
}

// A point predicate on the integer-valued nodeid selects one node's share of
// the deployment, not nothing: a free query would never be merged into a
// non-covering synthetic query, and the α rule would keep whatever it
// stranded forever.
func TestPointPredicateHasCost(t *testing.T) {
	m := fourLevels(t)
	q := query.MustParse("SELECT light WHERE nodeid = 5")
	if sel := m.Selectivity(q.Preds); math.Abs(sel-1.0/15) > 1e-12 {
		t.Fatalf("selectivity of nodeid = 5 is %g, want one node's share 1/15", sel)
	}
	if c := m.Cost(q); c <= 0 {
		t.Fatalf("cost of %v = %g, want > 0", q, c)
	}
	// At the edge of the id space half the unit interval lies outside.
	edge := query.MustParse("SELECT light WHERE nodeid = 15")
	if sel := m.Selectivity(edge.Preds); math.Abs(sel-0.5/15) > 1e-12 {
		t.Fatalf("selectivity of nodeid = 15 is %g, want 1/30", sel)
	}
	// A point on a continuous attribute still has measure zero, and ranges
	// are untouched (the closed-range off-by-one is DESIGN.md §3's, not
	// this fix's).
	if sel := m.Selectivity(query.MustParse("SELECT light WHERE light = 500").Preds); sel != 0 {
		t.Fatalf("selectivity of light = 500 is %g, want 0", sel)
	}
	if sel := m.Selectivity(query.MustParse("SELECT light WHERE nodeid >= 5 AND nodeid <= 6").Preds); math.Abs(sel-1.0/15) > 1e-12 {
		t.Fatalf("selectivity of nodeid in [5,6] is %g, want 1/15 as before", sel)
	}
}

// Selectivity integrates only the buckets the range overlaps; the terms and
// their order are those of a scan over every bucket, so the result is the
// same to the last bit.
func TestSelectivityMatchesFullScan(t *testing.T) {
	fullScan := func(h *Histogram, min, max float64) float64 {
		min = math.Max(min, h.lo)
		max = math.Min(max, h.hi)
		if min > max {
			return 0
		}
		width := (h.hi - h.lo) / float64(len(h.buckets))
		var sum float64
		for i, w := range h.buckets {
			bLo := h.lo + float64(i)*width
			bHi := bLo + width
			overlap := math.Min(max, bHi) - math.Max(min, bLo)
			if overlap > 0 {
				sum += w * overlap / width
			}
		}
		return sum / h.total
	}
	f := func(obs []uint16, a, b uint16, buckets uint8, fine bool) bool {
		h := NewHistogram(field.AttrLight, 0, 1000, 1+int(buckets)%97)
		for _, o := range obs {
			h.Observe(float64(o % 1100))
		}
		lo, hi := float64(a%1200)-100, float64(b%1200)-100
		if fine {
			lo, hi = lo/7, lo/7+hi/13
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		return math.Float64bits(h.Selectivity(lo, hi)) == math.Float64bits(fullScan(h, lo, hi))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Trans evaluates the selectivity once per query; the sum is Eq. (2)'s
// Σ_k result(q, N_k)·k to the last bit.
func TestTransIsSumOfResultRates(t *testing.T) {
	m := fourLevels(t)
	for _, s := range []string{
		"SELECT light WHERE light > 333 EPOCH DURATION 12288ms",
		"SELECT nodeid, temp WHERE temp >= 17.3 AND temp <= 61.9 AND light < 777 EPOCH DURATION 6144ms",
		"SELECT WINAVG(light, 4, 3) WHERE temp >= 10 EPOCH DURATION 2048ms",
	} {
		q := query.MustParse(s)
		var want float64
		for k := 1; k <= 3; k++ {
			want += m.ResultRate(q, k) * float64(k)
		}
		if q.IsWindowed() {
			want /= float64(q.Wins[0].Slide)
		}
		if got := m.Trans(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: Trans = %v, Σ ResultRate·k = %v", s, got, want)
		}
	}
}
