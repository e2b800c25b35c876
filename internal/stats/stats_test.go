package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Stddev() != 0 || s.N() != 0 {
		t.Fatal("empty series must be zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Mean() != 5 {
		t.Fatalf("n=%d mean=%f", s.N(), s.Mean())
	}
	// Sample stddev of the classic example: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev()-want) > 1e-12 {
		t.Fatalf("stddev = %f, want %f", s.Stddev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %f/%f", s.Min(), s.Max())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSeriesSinglePoint(t *testing.T) {
	var s Series
	s.Add(42)
	if s.Mean() != 42 || s.Stddev() != 0 || s.Min() != 42 || s.Max() != 42 {
		t.Fatalf("%+v", s)
	}
}

// Property: Welford matches the naive two-pass computation.
func TestSeriesMatchesNaive(t *testing.T) {
	f := func(vs []float64) bool {
		clean := make([]float64, 0, len(vs))
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			clean = append(clean, v)
		}
		if len(clean) < 2 {
			return true
		}
		var s Series
		var sum float64
		for _, v := range clean {
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, v := range clean {
			m2 += (v - mean) * (v - mean)
		}
		naiveVar := m2 / float64(len(clean)-1)
		scale := math.Max(1, math.Abs(naiveVar))
		return math.Abs(s.Mean()-mean) < 1e-6*math.Max(1, math.Abs(mean)) &&
			math.Abs(s.Var()-naiveVar) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesEmpty(t *testing.T) {
	var q Quantiles
	if q.N() != 0 || q.P50() != 0 || q.Quantile(0.99) != 0 {
		t.Fatalf("empty collection not zero-valued")
	}
}

func TestQuantilesSingle(t *testing.T) {
	var q Quantiles
	q.Add(7)
	for _, p := range []float64{0, 0.5, 0.95, 1} {
		if got := q.Quantile(p); got != 7 {
			t.Errorf("Quantile(%v) = %v, want 7", p, got)
		}
	}
}

func TestQuantilesInterpolation(t *testing.T) {
	var q Quantiles
	// Insert 1..100 out of order; quantiles must sort internally.
	for i := 100; i >= 1; i-- {
		q.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1},
		{0.5, 50.5},
		{0.95, 95.05},
		{0.99, 99.01},
		{1, 100},
	}
	for _, tc := range cases {
		if got := q.Quantile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

// TestQuantilesDuplicates: ties must not confuse rank interpolation — every
// quantile of a constant collection is that constant, and a bimodal tie
// interpolates between the two values only in the crossover band.
func TestQuantilesDuplicates(t *testing.T) {
	var q Quantiles
	for i := 0; i < 10; i++ {
		q.Add(5)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.95, 1} {
		if got := q.Quantile(p); got != 5 {
			t.Errorf("constant collection: Quantile(%v) = %v, want 5", p, got)
		}
	}
	var b Quantiles
	for i := 0; i < 5; i++ {
		b.Add(1)
		b.Add(2)
	}
	if got := b.Quantile(0); got != 1 {
		t.Errorf("bimodal min = %v, want 1", got)
	}
	if got := b.Quantile(1); got != 2 {
		t.Errorf("bimodal max = %v, want 2", got)
	}
	if got := b.P50(); got < 1 || got > 2 {
		t.Errorf("bimodal p50 = %v, want within [1, 2]", got)
	}
}

// TestQuantilesAddAfterQuery: Add must invalidate the sorted order
// established by a previous quantile query.
func TestQuantilesAddAfterQuery(t *testing.T) {
	var q Quantiles
	q.Add(10)
	q.Add(20)
	if got := q.Quantile(1); got != 20 {
		t.Fatalf("max = %v, want 20", got)
	}
	q.Add(5) // smaller than everything seen; must re-sort on next query
	if got := q.Quantile(0); got != 5 {
		t.Fatalf("min after late Add = %v, want 5", got)
	}
}
