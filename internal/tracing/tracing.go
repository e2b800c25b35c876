// Package tracing is the deterministic, virtual-time causal tracing
// plane for the two-tier serving stack. Every subscription is assigned a
// trace context (a trace ID plus per-hop span IDs) that travels with the
// subscribe down through the share coordinator, the federation router and
// the shard gateways, and back up stamped on every delivered result as a
// compact provenance record.
//
// Determinism is the design constraint: span IDs are FNV-1a hashes of
// their causal coordinates (trace, tier, hop, shard, virtual time) rather
// than random numbers, timestamps are virtual-time offsets, and exports
// are sorted on a total order — so the same seed and committed command
// sequence produce byte-identical trace exports at any parallelism level,
// matching the repo's existing determinism discipline.
//
// Each tier owns a bounded flight-recorder ring (Recorder). The ring is
// allocated by the caller and handed to the tier via its Config, so it
// survives the tier crashing underneath it and can be dumped afterwards —
// the crash dump is the ring, not a copy the dying tier had to produce.
package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tier names used across the stack. The serve CLI labels shard gateways
// "gateway" too (with Span.Shard set), so one query's causal path reads
// share -> router -> gateway regardless of deployment shape.
const (
	TierGateway = "gateway"
	TierRouter  = "router"
	TierShare   = "share"
)

// Hop kinds recorded across the tiers. They are exported so tests and the
// smoke drill assert on names instead of string literals.
const (
	KindSubscribe     = "subscribe"        // a subscription committed at this tier
	KindAdmit         = "admit"            // gateway posted the query into the network
	KindDedupHit      = "dedup-hit"        // gateway served the sub from an already-admitted query
	KindFirstResult   = "first-result"     // first delivery for the subscription
	KindFanout        = "fanout"           // one Advance round's delivery burst (tier-level)
	KindShed          = "shed"             // admission shed the subscribe (note says why)
	KindWALReplay     = "wal-replay"       // recovery replayed the write-ahead log
	KindCrash         = "crash"            // the tier crashed (flight recorder survives)
	KindShardFanout   = "shard-fanout"     // router split the plan onto one shard
	KindMergeRelease  = "merge-release"    // router released an epoch past the watermark barrier
	KindDegraded      = "degraded-release" // epoch released with open breakers excluded
	KindBreakerOpen   = "breaker-open"     // a shard breaker tripped
	KindBreakerClose  = "breaker-close"    // a shard breaker recovered
	KindReattach      = "reattach"         // upstream sessions re-attached after a crash
	KindCSEHit        = "cse-hit"          // share tree reused an already-live fragment
	KindResidualAdmit = "residual-admit"   // share tree materialized a new fragment upstream
	KindCacheReplay   = "cache-replay"     // windowed result cache replayed epochs to a late sub
)

// NoShard marks a span that is not tied to one shard.
const NoShard = -1

// DefaultCapacity is the flight-recorder ring depth per tier.
const DefaultCapacity = 4096

// HopLatencyBounds are the per-hop latency histogram bucket bounds in
// virtual seconds; hop durations run from sub-epoch (cache replays) to
// multi-epoch (watermark waits under a stalled shard).
var HopLatencyBounds = []float64{0.25, 1, 4, 16, 64, 256}

// Span is one recorded hop on a trace. AtMS/DurMS are virtual-time
// milliseconds; annotation fields are zero unless the hop sets them.
type Span struct {
	Trace    uint64  `json:"trace"`
	ID       uint64  `json:"id"`
	Parent   uint64  `json:"parent,omitempty"`
	Tier     string  `json:"tier"`
	Kind     string  `json:"kind"`
	Shard    int     `json:"shard"` // NoShard when not tied to one shard
	AtMS     int64   `json:"at_ms"`
	DurMS    int64   `json:"dur_ms,omitempty"`
	Seq      uint64  `json:"seq,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	Frags    int     `json:"frags,omitempty"`
	Reused   int     `json:"reused,omitempty"`
	Rung     int     `json:"rung,omitempty"`
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// Context is the trace context one tier hands the next: the trace ID and
// the span the downstream hop should parent to. The zero Context means
// "untraced"; tier-level events (fan-out rounds, breaker trips, WAL
// replays) record under trace 0 and group together in exports.
type Context struct {
	Trace uint64
	Span  uint64
}

// Prov is the compact provenance record stamped on every delivered
// result: which shards contributed, whether the windowed cache served it,
// how many fragments were recombined (and how many of those were CSE
// reuse), and the brownout rung at fan-out time. All fields are plain
// values so stamping allocates nothing on the hot path.
type Prov struct {
	Shards   uint64 // bitmask of contributing shard indices (bit i = shard i)
	Frags    uint16 // fragments recombined into this result
	Reused   uint16 // fragments that were CSE hits rather than new admissions
	CacheHit bool   // served from the windowed result cache
	Rung     uint8  // brownout ladder rung at fan-out
}

// Empty reports whether the record carries no provenance at all.
func (p Prov) Empty() bool { return p == Prov{} }

// ShardList expands the shard bitmask into sorted indices.
func (p Prov) ShardList() []int {
	if p.Shards == 0 {
		return nil
	}
	var out []int
	for i := 0; i < 64; i++ {
		if p.Shards&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// TraceID derives the deterministic trace ID for a subscription: FNV-1a
// over the session name and subscription ID. Both are pure functions of
// the committed command sequence, so the ID is reproducible across runs,
// recoveries and parallelism levels. Never zero (zero means untraced).
func TraceID(session string, sub uint64) uint64 {
	h := fnvString(fnvOffset, session)
	h = fnvUint(h, sub)
	if h == 0 {
		return 1
	}
	return h
}

// SpanID derives the deterministic span ID for a hop from its causal
// coordinates. Never zero.
func SpanID(trace uint64, tier, kind string, shard int, atMS int64) uint64 {
	h := fnvUint(fnvOffset, trace)
	h = fnvString(h, tier)
	h = fnvString(h, kind)
	h = fnvUint(h, uint64(int64(shard)))
	h = fnvUint(h, uint64(atMS))
	if h == 0 {
		return 1
	}
	return h
}

// Recorder is one tier's bounded flight-recorder ring. All methods are
// nil-safe: an untracted tier carries a nil recorder and every Record is
// a two-instruction no-op, which is what keeps tracing off the hot path
// when it is not mounted.
type Recorder struct {
	tier string

	mu       sync.Mutex
	buf      []Span
	next     int
	wrapped  bool
	recorded uint64
}

// New returns a flight recorder for one tier; capacity <= 0 uses
// DefaultCapacity.
func New(tier string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{tier: tier, buf: make([]Span, 0, capacity)}
}

// Tier returns the tier label the recorder was mounted with.
func (r *Recorder) Tier() string {
	if r == nil {
		return ""
	}
	return r.tier
}

// Record appends one span to the ring, evicting the oldest when full.
// A zero s.ID is derived from the span's causal coordinates; a zero
// s.Tier takes the recorder's tier. Returns the span ID so callers can
// parent later hops to it. Nil recorders drop everything and return 0.
func (r *Recorder) Record(s Span) uint64 {
	if r == nil {
		return 0
	}
	if s.Tier == "" {
		s.Tier = r.tier
	}
	if s.ID == 0 {
		s.ID = SpanID(s.Trace, s.Tier, s.Kind, s.Shard, s.AtMS)
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.next] = s
		r.next = (r.next + 1) % cap(r.buf)
		r.wrapped = true
	}
	r.recorded++
	r.mu.Unlock()
	return s.ID
}

// Snapshot copies the ring contents in insertion order.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.buf))
	if r.wrapped {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Stats returns how many spans were recorded over the recorder's lifetime
// and how many of those the bounded ring has since evicted.
func (r *Recorder) Stats() (recorded, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded, r.recorded - uint64(len(r.buf))
}

// TraceSpans is one trace's spans in the export, sorted on the total
// order (AtMS, Tier, Kind, Shard, ID).
type TraceSpans struct {
	Trace uint64 `json:"trace"`
	Spans []Span `json:"spans"`
}

// Export is the deterministic cross-tier trace export: every surviving
// span from every tier's flight recorder, grouped by trace. Trace 0
// groups tier-level events (fan-out rounds, breaker trips, WAL replays)
// that are not tied to one subscription.
type Export struct {
	Spans   int          `json:"spans"`
	Dropped uint64       `json:"dropped"`
	Traces  []TraceSpans `json:"traces"`
}

func spanLess(a, b Span) bool {
	if a.AtMS != b.AtMS {
		return a.AtMS < b.AtMS
	}
	if a.Tier != b.Tier {
		return a.Tier < b.Tier
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Shard != b.Shard {
		return a.Shard < b.Shard
	}
	return a.ID < b.ID
}

// Collect merges the given recorders' rings into one deterministic
// export. Nil recorders are skipped.
func Collect(recs ...*Recorder) *Export {
	e := &Export{}
	var all []Span
	for _, r := range recs {
		if r == nil {
			continue
		}
		all = append(all, r.Snapshot()...)
		_, dropped := r.Stats()
		e.Dropped += dropped
	}
	sort.Slice(all, func(i, j int) bool { return spanLess(all[i], all[j]) })
	e.Spans = len(all)

	byTrace := map[uint64][]Span{}
	var ids []uint64
	for _, s := range all {
		if _, ok := byTrace[s.Trace]; !ok {
			ids = append(ids, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		e.Traces = append(e.Traces, TraceSpans{Trace: id, Spans: byTrace[id]})
	}
	return e
}

// Trace returns one trace's spans from the export.
func (e *Export) Trace(id uint64) (TraceSpans, bool) {
	for _, t := range e.Traces {
		if t.Trace == id {
			return t, true
		}
	}
	return TraceSpans{}, false
}

// JSON renders the export as indented JSON with a trailing newline. The
// bytes are a pure function of the recorded spans, so two runs of the
// same seed and command sequence compare byte-equal.
func (e *Export) JSON() []byte {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		// Export contains only plain values; Marshal cannot fail.
		panic(err)
	}
	return append(data, '\n')
}

// RenderTrees writes the human-readable cross-tier span trees: one block
// per trace, spans nested under their parents with the per-hop latency
// delta (virtual time since the parent hop) on each line.
func RenderTrees(w io.Writer, e *Export) {
	fmt.Fprintf(w, "%d spans across %d traces (%d evicted from flight recorders)\n",
		e.Spans, len(e.Traces), e.Dropped)
	for _, t := range e.Traces {
		if t.Trace == 0 {
			fmt.Fprintf(w, "\ntier events (untraced):\n")
		} else {
			fmt.Fprintf(w, "\ntrace %016x (%d spans):\n", t.Trace, len(t.Spans))
		}
		at := map[uint64]int64{}
		for _, s := range t.Spans {
			at[s.ID] = s.AtMS
		}
		kids := map[uint64][]int{}
		var roots []int
		for i, s := range t.Spans {
			if _, ok := at[s.Parent]; s.Parent != 0 && ok && s.Parent != s.ID {
				kids[s.Parent] = append(kids[s.Parent], i)
			} else {
				roots = append(roots, i)
			}
		}
		var walk func(idx, depth int)
		walk = func(idx, depth int) {
			s := t.Spans[idx]
			for i := 0; i < depth; i++ {
				io.WriteString(w, "  ")
			}
			fmt.Fprintf(w, "+%-8s %s/%s", fmtMS(s.AtMS), s.Tier, s.Kind)
			if s.Shard != NoShard {
				fmt.Fprintf(w, " shard=%d", s.Shard)
			}
			if s.Parent != 0 {
				if pAt, ok := at[s.Parent]; ok {
					fmt.Fprintf(w, " (Δ%s)", fmtMS(s.AtMS-pAt))
				}
			}
			if s.DurMS > 0 {
				fmt.Fprintf(w, " dur=%s", fmtMS(s.DurMS))
			}
			if s.CacheHit {
				fmt.Fprintf(w, " cache-hit")
			}
			if s.Frags > 0 {
				fmt.Fprintf(w, " frags=%d reused=%d", s.Frags, s.Reused)
			}
			if s.Degraded {
				fmt.Fprintf(w, " degraded coverage=%.2f", s.Coverage)
			}
			if s.Rung > 0 {
				fmt.Fprintf(w, " rung=%d", s.Rung)
			}
			if s.Seq > 0 {
				fmt.Fprintf(w, " seq=%d", s.Seq)
			}
			if s.Note != "" {
				fmt.Fprintf(w, " %s", s.Note)
			}
			io.WriteString(w, "\n")
			for _, k := range kids[s.ID] {
				walk(k, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 1)
		}
	}
}

func fmtMS(ms int64) string {
	return (time.Duration(ms) * time.Millisecond).String()
}
