package tracing

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// String renders a span as one event-log line: virtual time, node, kind and
// note.
func (s Span) String() string {
	return fmt.Sprintf("%12s node=%-3d %-8s %s",
		time.Duration(s.At).Round(time.Millisecond), s.Node, s.Kind, s.Note)
}

// Eventf records one event-log span: kind on node at virtual time at (in
// nanoseconds), with a formatted note. A nil recorder records nothing, but
// the arguments are still evaluated: hot call sites check for nil first.
func (r *Recorder) Eventf(at int64, node int, kind, format string, args ...any) {
	if r != nil {
		r.Record(Span{Kind: kind, Node: int32(node), At: at, Note: fmt.Sprintf(format, args...)})
	}
}

// Tail returns the last n retained spans in insertion order.
func (r *Recorder) Tail(n int) []Span {
	spans := r.Snapshot()
	return spans[max(len(spans)-n, 0):]
}

// CountByKind counts the retained spans per kind.
func (r *Recorder) CountByKind() map[string]int {
	out := make(map[string]int)
	for _, s := range r.Snapshot() {
		out[s.Kind]++
	}
	return out
}

// WriteText writes the retained spans as the event log, one line each.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintln(w, s); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the retained spans as the event log's CSV
// (at_ms, kind, node, detail).
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at_ms,kind,node,detail"); err != nil {
		return err
	}
	for _, s := range r.Snapshot() {
		note := strings.ReplaceAll(s.Note, `"`, `""`)
		if _, err := fmt.Fprintf(w, "%d,%s,%d,\"%s\"\n", s.AtMS, s.Kind, s.Node, note); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders the retained span count, the evicted count when the ring
// has wrapped, and per-kind counts sorted by kind.
func (r *Recorder) Summary() string {
	counts := r.CountByKind()
	kinds := make([]string, 0, len(counts))
	n := 0
	for k, c := range counts {
		kinds = append(kinds, k)
		n += c
	}
	sort.Strings(kinds)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d events", n)
	if _, dropped := r.Stats(); dropped > 0 {
		fmt.Fprintf(&sb, " (+%d dropped)", dropped)
	}
	for _, k := range kinds {
		fmt.Fprintf(&sb, " %s=%d", k, counts[k])
	}
	return sb.String()
}

// Lifecycle is one user query's life in a simulation, paired from the
// network tier's admit, first-result and cancel spans, which carry the
// query ID in Trace. Times are virtual nanoseconds.
type Lifecycle struct {
	Query   uint64
	AdmitAt int64
	FirstAt int64
	// Injected is how many synthetic queries the tier-1 rewrite injected
	// for the admission; a query with none was covered by running ones and
	// needed no install flood.
	Injected  int
	HasResult bool
	Cancelled bool
}

// TTFR is the time to first result, or (0, false) if none arrived.
func (l Lifecycle) TTFR() (time.Duration, bool) {
	if !l.HasResult {
		return 0, false
	}
	return time.Duration(l.FirstAt - l.AdmitAt), true
}

// Lifecycles pairs the lifecycle spans of a snapshot into one Lifecycle
// per query, in admission order. A query admitted again keeps its place
// and its first result; a first result or cancel whose admit the ring has
// evicted is ignored.
func Lifecycles(spans []Span) []Lifecycle {
	var out []Lifecycle
	at := map[uint64]int{}
	for _, s := range spans {
		i, ok := at[s.Trace]
		switch s.Kind {
		case KindAdmit:
			if !ok {
				i = len(out)
				at[s.Trace] = i
				out = append(out, Lifecycle{Query: s.Trace})
			}
			out[i].AdmitAt, out[i].Injected = s.At, int(s.Seq)
		case KindFirstResult:
			if ok && !out[i].HasResult {
				out[i].FirstAt, out[i].HasResult = s.At, true
			}
		case KindCancel:
			if ok {
				out[i].Cancelled = true
			}
		}
	}
	return out
}

// SpanSummary aggregates the per-query lifecycle spans of one run: how
// many queries were admitted, how many needed an install flood (vs. being
// covered by already-shared queries), and the time-to-first-result
// distribution in virtual milliseconds. All values are deterministic.
type SpanSummary struct {
	Queries      int `json:"queries"`
	Flooded      int `json:"flooded"`
	FirstResults int `json:"first_results"`
	Cancelled    int `json:"cancelled"`
	// Injected is the total synthetic-query injections across all
	// admissions (the tier-1 rewrite fan-out).
	Injected   int     `json:"injected"`
	TTFRMeanMS float64 `json:"ttfr_mean_ms"`
	TTFRP50MS  float64 `json:"ttfr_p50_ms"`
	TTFRP95MS  float64 `json:"ttfr_p95_ms"`
	TTFRMaxMS  float64 `json:"ttfr_max_ms"`
}

// SummarizeSpans reduces a simulation's lifecycle-span snapshot
// (network.Simulation.Spans) to its export summary; nil when no queries
// were recorded (so the JSON field is omitted).
func SummarizeSpans(spans []Span) *SpanSummary {
	lives := Lifecycles(spans)
	if len(lives) == 0 {
		return nil
	}
	sm := &SpanSummary{Queries: len(lives)}
	var q stats.Quantiles
	var sum, max float64
	for _, s := range lives {
		if s.Injected > 0 {
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
