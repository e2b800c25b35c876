// Package stats provides the small summary-statistics toolkit the
// experiment harnesses use to report multi-seed results honestly: running
// mean and standard deviation (Welford's algorithm) and min/max. The
// parallel sweep executor lives in package runner.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Series accumulates scalar observations with Welford's online algorithm —
// numerically stable, single pass, O(1) memory.
type Series struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation in.
func (s *Series) Add(v float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		s.min = math.Min(s.min, v)
		s.max = math.Max(s.max, v)
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// N returns the observation count.
func (s *Series) N() int { return s.n }

// Mean returns the sample mean (0 for an empty series).
func (s *Series) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (s *Series) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Series) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min and Max return the extremes (0 for an empty series).
func (s *Series) Min() float64 {
	return s.min
}

// Max returns the largest observation.
func (s *Series) Max() float64 {
	return s.max
}

// String renders "mean ± stddev (n=N)".
func (s *Series) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean(), s.Stddev(), s.n)
}

// Quantiles accumulates observations for exact quantile queries — the
// latency-percentile companion to Series. It retains every observation
// (O(n) memory), which suits bounded sample sizes; switch to a sketch if a
// use case ever outgrows it.
type Quantiles struct {
	xs     []float64
	sorted bool
}

// Add folds one observation in.
func (q *Quantiles) Add(v float64) {
	q.xs = append(q.xs, v)
	q.sorted = false
}

// N returns the observation count.
func (q *Quantiles) N() int { return len(q.xs) }

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// between closest ranks; 0 for an empty collection.
func (q *Quantiles) Quantile(p float64) float64 {
	if len(q.xs) == 0 {
		return 0
	}
	if !q.sorted {
		sort.Float64s(q.xs)
		q.sorted = true
	}
	if p <= 0 {
		return q.xs[0]
	}
	if p >= 1 {
		return q.xs[len(q.xs)-1]
	}
	rank := p * float64(len(q.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return q.xs[lo]
	}
	frac := rank - float64(lo)
	return q.xs[lo]*(1-frac) + q.xs[hi]*frac
}

// P50 returns the median.
func (q *Quantiles) P50() float64 { return q.Quantile(0.50) }

// P95 returns the 95th percentile.
func (q *Quantiles) P95() float64 { return q.Quantile(0.95) }
