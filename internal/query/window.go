package query

import (
	"fmt"
	"math"
	"time"

	"repro/internal/field"
)

// Win is one windowed (temporal) aggregate of TinyDB's WINAVG family: each
// node computes Op over its own last Window samples of Attr and reports the
// value every Slide epochs. Windowed aggregates are node-local — they
// produce one derived value per node, like acquisition of a computed
// attribute — which is why their results ride the acquisition machinery.
type Win struct {
	Op   AggOp
	Attr field.Attr
	// Window is the number of most recent samples aggregated (≥ 1).
	Window int
	// Slide is the reporting period in epochs (≥ 1; 1 reports every epoch).
	Slide int
}

// String returns e.g. "WINAVG(light, 8, 2)".
func (w Win) String() string {
	if w.Slide == 1 {
		return fmt.Sprintf("WIN%s(%s, %d)", w.Op, w.Attr, w.Window)
	}
	return fmt.Sprintf("WIN%s(%s, %d, %d)", w.Op, w.Attr, w.Window, w.Slide)
}

// IsWindowed reports whether the query computes windowed aggregates.
func (q Query) IsWindowed() bool { return len(q.Wins) > 0 }

// ReportEvery returns the interval between result reports: Slide·Epoch for
// windowed queries (all wins of a query share one slide, enforced by
// Validate), Epoch otherwise.
func (q Query) ReportEvery() time.Duration {
	if len(q.Wins) > 0 {
		return time.Duration(q.Wins[0].Slide) * q.Epoch
	}
	return q.Epoch
}

// WindowRing holds a node's recent samples for one windowed aggregate. The
// zero value is unusable; construct with NewWindowRing.
type WindowRing struct {
	vals []float64
	next int
	n    int
}

// NewWindowRing returns a ring for the last `window` samples.
func NewWindowRing(window int) *WindowRing {
	if window < 1 {
		window = 1
	}
	return &WindowRing{vals: make([]float64, window)}
}

// Push appends a sample, evicting the oldest when full.
func (r *WindowRing) Push(v float64) {
	r.vals[r.next] = v
	r.next = (r.next + 1) % len(r.vals)
	if r.n < len(r.vals) {
		r.n++
	}
}

// Len returns how many samples the ring currently holds.
func (r *WindowRing) Len() int { return r.n }

// Aggregate computes op over the ring's contents; ok is false while the
// ring is empty. Partial windows (fewer than `window` samples yet) are
// aggregated over what is available, as TinyDB does at query start.
func (r *WindowRing) Aggregate(op AggOp) (v float64, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	st := NewAggState(Agg{Op: op})
	start := r.next - r.n
	if start < 0 {
		start += len(r.vals)
	}
	for i := 0; i < r.n; i++ {
		st.Add(r.vals[(start+i)%len(r.vals)])
	}
	return st.Result()
}

// winsCompatible reports whether two window lists can share one synthetic
// query: an attribute may not carry two different computations (operator or
// window size), because a node-reported row holds one derived value per
// attribute. Differing slides are fine — the merge reports on the GCD
// schedule and each query decimates.
func winsCompatible(a, b []Win) bool {
	for _, wa := range a {
		for _, wb := range b {
			if wa.Attr == wb.Attr && (wa.Op != wb.Op || wa.Window != wb.Window) {
				return false
			}
		}
	}
	return true
}

// RowAttrs returns the attributes a query's result rows carry: the
// projection list plus windowed-value attributes.
func (q Query) RowAttrs() []field.Attr {
	if len(q.Wins) == 0 {
		return q.Attrs
	}
	attrs := make([]field.Attr, 0, len(q.Attrs)+len(q.Wins))
	attrs = append(attrs, q.Attrs...)
	for _, w := range q.Wins {
		attrs = append(attrs, w.Attr)
	}
	return dedupAttrs(attrs)
}

// dedupWins orders a window list by attribute, operator, window size and
// slide.
func dedupWins(wins []Win) []Win { return sortedSet(wins, winLess) }

func winLess(a, b Win) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.Op != b.Op {
		return a.Op < b.Op
	}
	if a.Window != b.Window {
		return a.Window < b.Window
	}
	return a.Slide < b.Slide
}

// validateWins checks the windowed-query invariants.
func (q Query) validateWins() error {
	if len(q.Wins) == 0 {
		return nil
	}
	if len(q.Attrs) > 0 || len(q.Aggs) > 0 {
		return fmt.Errorf("query %d: windowed aggregates cannot mix with attribute or aggregate lists", q.ID)
	}
	if q.GroupBy != nil {
		return fmt.Errorf("query %d: GROUP BY does not apply to windowed aggregates", q.ID)
	}
	slide := q.Wins[0].Slide
	for i, w := range q.Wins {
		if w.Window < 1 || w.Window > 1024 {
			return fmt.Errorf("query %d: window size %d out of range", q.ID, w.Window)
		}
		if w.Slide < 1 {
			return fmt.Errorf("query %d: slide %d out of range", q.ID, w.Slide)
		}
		if w.Slide != slide {
			return fmt.Errorf("query %d: all windowed aggregates must share one slide", q.ID)
		}
		for _, prev := range q.Wins[:i] {
			if prev.Attr == w.Attr && prev != w {
				return fmt.Errorf("query %d: conflicting window specs on %s", q.ID, w.Attr)
			}
		}
	}
	if math.MaxInt64/int64(slide) < int64(q.Epoch) {
		return fmt.Errorf("query %d: slide overflows", q.ID)
	}
	return nil
}
