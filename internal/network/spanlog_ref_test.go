// Reference span log: the map-backed per-query lifecycle log the simulation
// kept before its lifecycle became spans on a tracing.Recorder, kept verbatim
// (telemetry.SpanLog, with the export summary tracing.SummarizeSpans computed
// over it) as the oracle TestLifecycleMatchesSpanLog checks the recorder and
// its pairing against.

package network

import (
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/tracing"
)

// QuerySpan is the lifecycle of one admitted query in virtual time:
// admission, tier-1 rewrite (how many synthetic queries the optimizer
// injected), install flood, and the first result delivered to the user.
// All timestamps are virtual-time offsets from the start of the run, so
// spans are pure functions of the seed and command sequence.
type QuerySpan struct {
	QueryID   int           `json:"query_id"`
	AdmitAt   time.Duration `json:"admit_at"`
	FloodAt   time.Duration `json:"flood_at"`
	FirstAt   time.Duration `json:"first_result_at"`
	Injected  int           `json:"injected"` // synthetic queries from the rewrite
	Flooded   bool          `json:"flooded"`
	HasResult bool          `json:"has_result"`
	Cancelled bool          `json:"cancelled"`
}

// TTFR is the time-to-first-result, or (0, false) if no result arrived.
func (s QuerySpan) TTFR() (time.Duration, bool) {
	if !s.HasResult {
		return 0, false
	}
	return s.FirstAt - s.AdmitAt, true
}

// DefaultSpanLogCapacity bounds a SpanLog built by NewSpanLog. Long
// serving runs admit an unbounded stream of queries; the span log is an
// observability window, not an archive, so it retains the most recent
// spans and counts what it dropped.
const DefaultSpanLogCapacity = 4096

// SpanLog records per-query lifecycle spans, bounded to a fixed number of
// live entries with FIFO eviction in admission order. It is internally
// locked: the simulation loop writes while HTTP handlers snapshot.
type SpanLog struct {
	mu      sync.Mutex
	spans   map[int]*QuerySpan
	order   []int
	head    int // index of the oldest live entry in order
	cap     int
	evicted uint64
}

// NewSpanLog returns an empty span log bounded to DefaultSpanLogCapacity.
func NewSpanLog() *SpanLog {
	return NewSpanLogCap(DefaultSpanLogCapacity)
}

// NewSpanLogCap returns an empty span log retaining at most capacity
// spans (values < 1 are clamped to 1).
func NewSpanLogCap(capacity int) *SpanLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanLog{spans: map[int]*QuerySpan{}, cap: capacity}
}

func (l *SpanLog) get(id int, at time.Duration) *QuerySpan {
	s, ok := l.spans[id]
	if !ok {
		if len(l.spans) >= l.cap {
			delete(l.spans, l.order[l.head])
			l.order[l.head] = 0
			l.head++
			l.evicted++
			// Compact the dead prefix once it dominates the slice, so the
			// backing array stays O(cap) instead of growing forever.
			if l.head > len(l.order)/2 {
				l.order = append(l.order[:0], l.order[l.head:]...)
				l.head = 0
			}
		}
		s = &QuerySpan{QueryID: id, AdmitAt: at}
		l.spans[id] = s
		l.order = append(l.order, id)
	}
	return s
}

// Admit marks a query admitted at the given virtual time, recording how
// many synthetic queries the tier-1 rewrite injected alongside it.
func (l *SpanLog) Admit(id int, at time.Duration, injected int) {
	l.mu.Lock()
	s := l.get(id, at)
	s.AdmitAt = at
	s.Injected = injected
	l.mu.Unlock()
}

// Flood marks the install flood for a query.
func (l *SpanLog) Flood(id int, at time.Duration) {
	l.mu.Lock()
	s := l.get(id, at)
	if !s.Flooded {
		s.FloodAt = at
		s.Flooded = true
	}
	l.mu.Unlock()
}

// FirstResult marks the first user-visible result for a query; later
// calls for the same query are no-ops.
func (l *SpanLog) FirstResult(id int, at time.Duration) {
	l.mu.Lock()
	s := l.get(id, at)
	if !s.HasResult {
		s.FirstAt = at
		s.HasResult = true
	}
	l.mu.Unlock()
}

// Cancel marks a query cancelled.
func (l *SpanLog) Cancel(id int) {
	l.mu.Lock()
	if s, ok := l.spans[id]; ok {
		s.Cancelled = true
	}
	l.mu.Unlock()
}

// Len returns the number of retained spans.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Evicted returns how many spans the capacity bound has dropped.
func (l *SpanLog) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Snapshot returns a copy of every retained span in admission order; safe
// to call from any goroutine.
func (l *SpanLog) Snapshot() []QuerySpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QuerySpan, 0, len(l.order)-l.head)
	for _, id := range l.order[l.head:] {
		out = append(out, *l.spans[id])
	}
	return out
}

// refSummarize is tracing.SummarizeSpans over the reference log.
func refSummarize(spans []QuerySpan) *tracing.SpanSummary {
	if len(spans) == 0 {
		return nil
	}
	sm := &tracing.SpanSummary{Queries: len(spans)}
	var q stats.Quantiles
	var sum, max float64
	for _, s := range spans {
		if s.Flooded {
			sm.Flooded++
		}
		if s.Cancelled {
			sm.Cancelled++
		}
		sm.Injected += s.Injected
		if ttfr, ok := s.TTFR(); ok {
			sm.FirstResults++
			ms := float64(ttfr) / float64(time.Millisecond)
			q.Add(ms)
			sum += ms
			if ms > max {
				max = ms
			}
		}
	}
	if sm.FirstResults > 0 {
		sm.TTFRMeanMS = sum / float64(sm.FirstResults)
		sm.TTFRP50MS = q.P50()
		sm.TTFRP95MS = q.P95()
		sm.TTFRMaxMS = max
	}
	return sm
}
