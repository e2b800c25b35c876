package tier

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// The serving vocabulary every tier and the connection handler share. It is
// declared here, below all of them, and re-exported by alias from
// internal/gateway, whose names the rest of the repository uses.

// ErrClosed is returned for any command issued after a tier closed.
var ErrClosed = errors.New("gateway: closed")

// DefaultShedRetryAfter is the base retry-after hint attached to overload
// rejections.
const DefaultShedRetryAfter = 250 * time.Millisecond

// SubID identifies one subscription within a tier.
type SubID int64

// CloseReason says why a subscription's update stream was closed.
type CloseReason uint8

const (
	// ReasonNone: the subscription is still live.
	ReasonNone CloseReason = iota
	// ReasonUnsubscribed: the client unsubscribed.
	ReasonUnsubscribed
	// ReasonEvicted: the subscriber stalled past its buffer bound.
	ReasonEvicted
	// ReasonShutdown: the tier or the session closed.
	ReasonShutdown
	// ReasonDetached: the session detached (client disconnected); the
	// subscription is resumable with Session.Resume.
	ReasonDetached
	// ReasonCrashed: the gateway crashed; the session is resumable on the
	// recovered gateway via Attach + Session.Resume.
	ReasonCrashed
)

func (r CloseReason) String() string {
	switch r {
	case ReasonNone:
		return "live"
	case ReasonUnsubscribed:
		return "unsubscribed"
	case ReasonEvicted:
		return "evicted"
	case ReasonShutdown:
		return "shutdown"
	case ReasonDetached:
		return "detached"
	case ReasonCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Update is one epoch of results delivered to one subscriber. Exactly one
// of Rows and Aggs is non-nil, matching the query's kind.
type Update struct {
	Sub     SubID
	QueryID query.ID
	// Seq is the per-subscription delivery sequence number, starting at 1
	// and incrementing by one per delivered epoch. It is assigned once,
	// survives gateway crashes (deterministic replay regenerates the same
	// numbering), and is the client's resume cursor: after a disconnect or
	// crash, Resume(id, lastSeenSeq) continues the stream from exactly the
	// next sequence number.
	Seq uint64
	// At is the epoch's virtual timestamp.
	At sim.Time
	// Rows is one acquisition epoch (nil for aggregation queries).
	Rows []query.Row
	// Aggs is one aggregation epoch (nil for acquisition queries).
	Aggs []query.AggResult
	// Degraded marks an epoch released without full shard coverage: a
	// tripped circuit breaker excluded one or more spanned shards from
	// the federation merge watermark, so the epoch may be missing those
	// shards' contributions. Coverage is then the fraction of spanned
	// shards that were contributing when the epoch released; both fields
	// are zero on single-gateway and fully-covered updates.
	Degraded bool
	Coverage float64
	// Trace is the subscription's causal trace ID (zero when the serving
	// stack runs untraced); Prov is the compact provenance record every
	// tier stamps on the way up — origin shards, cache-hit flag, fragment
	// reuse and the brownout rung at fan-out. Both are plain values, so
	// stamping costs no allocation on the delivery hot path.
	Trace uint64
	Prov  tracing.Prov
}

// ResumeInfo describes one resumable subscription of a re-attached
// session, as returned by Attach.
type ResumeInfo struct {
	ID      SubID
	Key     string
	QueryID query.ID
	// LastSeq is the stream's last delivered sequence number; a client that
	// has processed everything resumes with after=LastSeq.
	LastSeq uint64
}

// SubscribeRequest is the one subscribe call every tier takes: the parsed
// query plus the options that ride down the tier chain with it.
type SubscribeRequest struct {
	Query query.Query
	// Budget bounds the command's mailbox sojourn (wire deadline_ms): any
	// hop — router staging, shard gateway staging — that out-waits it sheds
	// the command with ErrOverloaded instead of applying it late. Zero falls
	// back to the tier's configured MailboxDeadline.
	Budget time.Duration
	// Trace is the subscriber-propagated causal context: Trace keys every
	// span the subscription produces and Span parents the tier's subscribe
	// span, so the hops of every tier join one trace. A zero context lets
	// the tier derive a deterministic trace at commit.
	Trace tracing.Context
}

// Signal is a coalescing wake-up: a capacity-1 channel whose receiver, once
// woken, looks at everything the wake-up could stand for.
type Signal chan struct{}

// Raise leaves one wake-up pending, unless one already is. It never blocks.
func (s Signal) Raise() {
	select {
	case s <- struct{}{}:
	default:
	}
}

// Counters is the serving counter block every Backend reports (the wire
// `stats` blob, /statusz and the run export carry it). All counters except
// the gauges are cumulative since construction, and every field is a pure
// function of the committed command sequence and the simulation seed, so
// snapshots are deterministic under the group-commit ordering. Stats is the
// subset a session kernel keeps; the rest is the shard gateway's own.
type Counters struct {
	// Sessions is the cumulative number of registered sessions;
	// ActiveSessions the current gauge.
	Sessions       int64 `json:"sessions"`
	ActiveSessions int   `json:"active_sessions"`
	// Subscribes counts accepted subscriptions; the four after it count
	// rejected ones (rate limit, quota, admission failure).
	Subscribes    int64 `json:"subscribes"`
	Unsubscribes  int64 `json:"unsubscribes"`
	RateLimited   int64 `json:"rate_limited"`
	QuotaRejected int64 `json:"quota_rejected"`
	AdmitErrors   int64 `json:"admit_errors"`
	// DedupHits counts subscriptions served by an already-admitted query;
	// Admitted counts queries actually posted into the network; Cancelled
	// counts refcount-zero cancellations.
	DedupHits int64 `json:"dedup_hits"`
	Admitted  int64 `json:"admitted"`
	Cancelled int64 `json:"cancelled"`
	// ActiveSubscriptions and SharedQueries are current gauges.
	ActiveSubscriptions int `json:"active_subscriptions"`
	SharedQueries       int `json:"shared_queries"`
	// Updates counts fanned-out result deliveries; Epochs counts result
	// epochs arriving from the simulation; Dropped counts deliveries lost
	// to full buffers; Evicted counts slow subscribers removed for it.
	Updates int64 `json:"updates"`
	Epochs  int64 `json:"epochs"`
	Dropped int64 `json:"dropped"`
	Evicted int64 `json:"evicted"`
	// Overload-shedding counters (all zero unless the resilience knobs
	// are set). ShedQueue counts subscribes rejected at stage time by the
	// MaxStaged mailbox bound; ShedDeadline counts subscribes shed at the
	// commit boundary because they out-sat their mailbox deadline budget;
	// ShedSubs counts subscribes rejected by the global MaxLiveSubs cap;
	// ShedBrownout counts subscribes rejected while the brownout ladder
	// sat at its shed rung. BrownoutLevel is the ladder's current rung
	// (gauge; see resilience.Level) and BrownoutEscalations /
	// BrownoutRecoveries count its rung transitions.
	ShedQueue           int64 `json:"shed_queue"`
	ShedDeadline        int64 `json:"shed_deadline"`
	ShedSubs            int64 `json:"shed_subs"`
	ShedBrownout        int64 `json:"shed_brownout"`
	BrownoutLevel       int   `json:"brownout_level"`
	BrownoutEscalations int64 `json:"brownout_escalations"`
	BrownoutRecoveries  int64 `json:"brownout_recoveries"`
	// Crash-recovery and reconnection counters. Detaches/Attaches count
	// session disconnect/re-claim pairs; Resumes counts resumed
	// subscription streams and ResumeGaps the resumes that could not
	// splice seamlessly because the bounded resume ring had already
	// dropped wanted updates (RingDropped counts those drops). IdleReaped
	// counts detached sessions closed by the idle timeout; Recoveries is 1
	// on a gateway rebuilt by Recover. After a recovery the counters are
	// the deterministic replay's view of history: evictions replay as
	// unsubscriptions, and drops on long-gone live streams are not
	// re-counted.
	Detaches    int64 `json:"detaches"`
	Attaches    int64 `json:"attaches"`
	Resumes     int64 `json:"resumes"`
	ResumeGaps  int64 `json:"resume_gaps"`
	RingDropped int64 `json:"ring_dropped"`
	IdleReaped  int64 `json:"idle_reaped"`
	Recoveries  int64 `json:"recoveries"`
	// Write-ahead-log accounting. WALAppends counts records written
	// (lifecycle records and per-Advance progress marks), WALCompactions
	// counts log rewrites (periodic snapshots and the one after every
	// recovery), and WALSizeBytes is the log's current size. All zero when
	// the WAL is disabled. Replayed records are not re-counted, so the
	// counters are deterministic across recoveries like everything else.
	WALAppends     int64 `json:"wal_appends"`
	WALCompactions int64 `json:"wal_compactions"`
	WALSizeBytes   int64 `json:"wal_size_bytes"`
}

// DedupRatio is subscriptions served per network query admitted (> 1 means
// the serving tier is sharing).
func (c Counters) DedupRatio() float64 {
	if c.Admitted == 0 {
		return 0
	}
	return float64(c.Subscribes) / float64(c.Admitted)
}

// GatewayMetrics is the serving tier's exported counter set: the wire
// `stats` reply and the run export carry the counter block plus the
// derived dedup ratio.
type GatewayMetrics struct {
	Counters
	// DedupRatio is subscriptions per admitted network query (> 1 means
	// the serving tier shared work).
	DedupRatio float64 `json:"dedup_ratio"`
}

// Metrics returns the counter block in its exported form.
func (c Counters) Metrics() *GatewayMetrics {
	return &GatewayMetrics{Counters: c, DedupRatio: c.DedupRatio()}
}
