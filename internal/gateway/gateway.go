// Package gateway is the concurrent multi-client query-serving tier in
// front of the single-threaded sensor-network simulation: the base
// station's front door. Many client goroutines (or TCP connections, see
// Server) register sessions, subscribe to TinyDB-dialect queries and
// stream per-epoch results back, while one actor goroutine owns the
// network.Simulation and its discrete-event engine.
//
// The bridge between the two worlds is a group-commit mailbox: client
// commands (subscribe, unsubscribe, session close) are staged as they
// arrive and committed only at the next Advance call, sorted by (session
// name, per-session sequence number). A client's own commands therefore
// apply in its program order, concurrent clients apply in a fixed total
// order regardless of goroutine scheduling, and the simulation — including
// every exported metric — stays byte-for-byte deterministic under
// arbitrary client concurrency, provided each Advance's command set is
// submitted before the tick (which the phased load generator and the
// regression tests guarantee, and which a wall-clock pacer approximates
// per tick).
//
// On top of the bridge the gateway applies the paper's tier-1 sharing idea
// once more, at the serving tier: a semantic dedup cache maps every
// subscription whose query canonicalizes to the same normalized form (see
// CanonicalKey) onto one admitted in-network query with reference
// counting, so N subscribers cost the network one query; the tier-1
// optimizer below then merges the distinct admitted queries further.
// Results fan out to per-subscriber bounded buffers; a subscriber that
// stalls past its buffer bound is evicted so one slow client can never
// wedge the simulation or its fast peers. Closing the gateway drains every
// session and cancels each admitted query as its reference count reaches
// zero.
//
// The serving tier also survives its own death. With Config.WALPath set,
// every committed lifecycle change is written to a write-ahead log and
// Recover rebuilds a crashed gateway by deterministic replay (see wal.go).
// Sessions carry resume tokens, every update carries a per-subscription
// sequence number, and a disconnected or crashed-out client re-attaches
// with Gateway.Attach and Session.Resume to pick its streams back up from
// the exact next sequence number — duplicates are impossible to emit twice
// with the same Seq, so client-side dedup on Seq yields exactly-once
// consumption over an at-least-once transport.
package gateway

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// defaultEnergy prices exported node activity; the serving tier has no
// reason to deviate from the repository's mica2-flavoured defaults.
var defaultEnergy = metrics.DefaultEnergyModel()

// Defaults for the Config knobs.
const (
	DefaultBuffer       = 64
	DefaultMaxSessions  = 4096
	DefaultSessionQuota = 16
	DefaultRate         = 4.0 // subscribe tokens per simulated second
	DefaultBurst        = 32.0
	// DefaultIdleTimeout is how long (virtual time) a detached session may
	// sit idle before an Advance reaps it.
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultSnapshotEvery is how many Advances pass between WAL
	// compactions.
	DefaultSnapshotEvery = 256
	// DefaultShedRetryAfter is the base retry-after hint attached to
	// overload rejections when Config.ShedRetryAfter is zero.
	DefaultShedRetryAfter = 250 * time.Millisecond
)

// Config parametrizes a Gateway.
type Config struct {
	// Sim configures the simulation the gateway fronts; required fields as
	// in network.New. DiscardResults is forced on (the gateway streams
	// results to subscribers instead of retaining them).
	Sim network.Config
	// Buffer is the per-subscriber result buffer bound (DefaultBuffer if
	// <= 0). A subscriber whose buffer is full when a result arrives is
	// evicted.
	Buffer int
	// MaxSessions caps concurrently registered sessions
	// (DefaultMaxSessions if <= 0).
	MaxSessions int
	// SessionQuota caps live subscriptions per session
	// (DefaultSessionQuota if <= 0).
	SessionQuota int
	// Rate and Burst parametrize each session's token bucket: Rate
	// subscribe tokens accrue per simulated second up to Burst. The bucket
	// is driven by virtual time so admission control is deterministic.
	// Defaults: DefaultRate, DefaultBurst.
	Rate  float64
	Burst float64
	// Sample, when positive, attaches a virtual-time metrics series to the
	// simulation (network.Simulation.StartSeries); retrieve it with Series.
	Sample time.Duration
	// WALPath, when set, enables crash recovery: committed lifecycle
	// changes are logged there and Recover rebuilds the gateway from the
	// file by deterministic replay. New truncates an existing file (fresh
	// run); use Recover to resume one.
	WALPath string
	// IdleTimeout bounds how long a detached session lingers before an
	// Advance reaps it, in virtual time (DefaultIdleTimeout if zero;
	// negative disables reaping). Attached sessions are never reaped.
	IdleTimeout time.Duration
	// SnapshotEvery compacts the WAL every that many Advances
	// (DefaultSnapshotEvery if zero; negative disables periodic
	// compaction).
	SnapshotEvery int
	// OnSim, when set, runs against the freshly built simulation before the
	// actor loop starts — in New and again inside Recover, so
	// engine-scheduled fault injection (chaos scenarios) is re-applied
	// identically to the replayed world.
	OnSim func(*network.Simulation)
	// ChaosLabel, when set, annotates the export manifest's Chaos field
	// with the fault scenario the run was driven under.
	ChaosLabel string
	// MaxStaged, when positive, bounds the group-commit mailbox: a
	// subscribe arriving while MaxStaged commands are already staged is
	// rejected immediately with a typed *resilience.OverloadError
	// carrying a retry-after hint. Unsubscribes and session closes are
	// always staged — they free resources. Zero disables the bound.
	MaxStaged int
	// MailboxDeadline, when positive, is the default sojourn budget for
	// staged subscribes (the CoDel-style deadline on the group-commit
	// mailbox): a subscribe that waits longer than its budget between
	// staging and the committing Advance is shed with ErrOverloaded
	// instead of applied. Per-command budgets (SubscribeRequest.Budget, wire
	// deadline_ms) override it. Zero disables the default deadline.
	MailboxDeadline time.Duration
	// MaxLiveSubs, when positive, caps gateway-wide live subscriptions;
	// subscribes beyond the cap are shed with ErrOverloaded. Zero
	// disables the global cap (per-session quotas still apply).
	MaxLiveSubs int
	// ShedRetryAfter is the base retry-after hint on overload rejections
	// (DefaultShedRetryAfter if zero); the hint grows with mailbox depth.
	ShedRetryAfter time.Duration
	// Brownout parametrizes the degradation ladder's hysteresis; the
	// ladder observes mailbox pressure once per Advance and only ever
	// moves when MaxStaged is set (without a bound there is no pressure
	// signal).
	Brownout resilience.BrownoutConfig
	// Tracer, when set, is this tier's causal-trace flight recorder: every
	// committed subscription is assigned a deterministic trace context and
	// the admit/commit/fan-out/replay hops record bounded spans into the
	// ring. The recorder is caller-owned, so it survives a crash of the
	// gateway underneath it and can be dumped afterwards. Nil disables
	// tracing entirely (every hook is a nil-receiver no-op).
	Tracer *tracing.Recorder
	// TraceShard stamps recorded spans with this gateway's shard ordinal
	// in a federated deployment, offset by one: 0 (the zero value) means
	// "not a shard member", k means shard k-1.
	TraceShard int
}

// SubID identifies one subscription within a gateway.
type SubID int64

// CloseReason says why a subscription's update channel was closed.
type CloseReason uint8

const (
	// ReasonNone: the subscription is still live.
	ReasonNone CloseReason = iota
	// ReasonUnsubscribed: the client unsubscribed.
	ReasonUnsubscribed
	// ReasonEvicted: the subscriber stalled past its buffer bound.
	ReasonEvicted
	// ReasonShutdown: the gateway closed.
	ReasonShutdown
	// ReasonDetached: the session detached (client disconnected); the
	// subscription is resumable with Session.Resume.
	ReasonDetached
	// ReasonCrashed: the gateway crashed; the session is resumable on the
	// recovered gateway via Gateway.Attach + Session.Resume.
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
	// Enqueued is the wall-clock instant the gateway fanned the update
	// out, for client-observed latency measurement. It never feeds back
	// into the simulation.
	Enqueued time.Time
}

// Subscription is one client's handle on a (possibly shared) query stream.
// Updates delivers epochs until the subscription ends; after the channel
// closes, Reason reports why.
type Subscription struct {
	id     SubID
	sess   *Session
	key    *internedKey // canonical query key; pointer-shared with shared.key
	qid    query.ID
	shared bool
	ch     chan Update

	// reason is written by the gateway loop strictly before close(ch) and
	// read by the client strictly after the channel closes, so the close
	// itself is the synchronization edge.
	reason CloseReason

	// Loop-owned stream state.
	seq      uint64   // last delivered sequence number
	detached bool     // session detached: deliveries go to the resume ring
	evict    bool     // stalled past the buffer bound; removed at next Advance
	ring     []Update // bounded resume buffer while detached (cap = Config.Buffer)

	// Causal-trace context, assigned at commit (loop-owned, immutable
	// after): the trace ID stamped on every delivery, the subscribe span
	// later hops parent to, and the admit instant for first-result
	// latency. All zero when the gateway runs untraced.
	trace     uint64
	spanID    uint64
	admitAtMS int64
}

// ID returns the subscription's gateway-wide identifier.
func (s *Subscription) ID() SubID { return s.id }

// QueryID returns the in-network user query the subscription reads from;
// subscribers with semantically equal queries share one.
func (s *Subscription) QueryID() query.ID { return s.qid }

// Shared reports whether the subscription attached to an already-admitted
// query (a dedup hit) rather than causing a new network admission.
func (s *Subscription) Shared() bool { return s.shared }

// Key returns the canonical cache key of the subscribed query.
func (s *Subscription) Key() string { return s.key.String() }

// Updates is the subscriber's result stream.
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Reason reports why the stream ended. Only valid after Updates is closed.
func (s *Subscription) Reason() CloseReason { return s.reason }

// TraceID returns the subscription's causal trace ID (zero when the
// gateway runs untraced). Assigned at the commit that admitted the
// subscription, deterministically from the session name and SubID unless
// the subscriber propagated its own context.
func (s *Subscription) TraceID() uint64 { return s.trace }

// Session is one registered client. Its methods may be called from any
// goroutine; commands issued from a single goroutine apply in issue order.
type Session struct {
	g    *Gateway
	name string
	// token authenticates re-attachment after a disconnect or gateway
	// crash. Immutable after registration; derived deterministically from
	// the seed, the name and the registration ordinal (it guards against
	// accidental session takeover in the simulation harness, not against an
	// adversary).
	token string

	mu  sync.Mutex
	seq uint64

	// ready is raised by the loop after every push to, or close of, one of
	// the session's subscription channels (see ServerSession.Ready).
	ready Signal

	// Loop-owned state; never touched by client goroutines.
	live      map[SubID]*Subscription
	tokens    float64
	closed    bool
	attached  bool     // a client currently holds the session
	idleSince sim.Time // when the session detached (reap clock)
	dropped   int64    // updates dropped on this session's evictions
}

// Name returns the session's registered name.
func (s *Session) Name() string { return s.name }

// Token returns the session's resume token, quoted back in Gateway.Attach
// to re-claim the session after a disconnect or gateway crash.
func (s *Session) Token() string { return s.token }

// Ready implements ServerSession: a coalescing signal that some subscription
// of the session has updates to drain or has closed.
func (s *Session) Ready() <-chan struct{} { return s.ready }

func (s *Session) nextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return s.seq
}

// Stats is the gateway's counter snapshot. All counters except the
// wall-clock-free gauges are cumulative since construction. Every field is
// a pure function of the committed command sequence and the simulation
// seed, so snapshots are deterministic under the group-commit ordering.
type Stats struct {
	// Sessions is the cumulative number of registered sessions;
	// ActiveSessions the current gauge.
	Sessions       int64 `json:"sessions"`
	ActiveSessions int   `json:"active_sessions"`
	// Subscribes counts accepted subscriptions; SubscribeErrors counts
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
	// unsubscriptions, and drops on long-gone live channels are not
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
func (st Stats) DedupRatio() float64 {
	if st.Admitted == 0 {
		return 0
	}
	return float64(st.Subscribes) / float64(st.Admitted)
}

// Metrics converts the snapshot into its obs export form.
func (st Stats) Metrics() obs.GatewayMetrics {
	return obs.GatewayMetrics{
		Sessions:            st.Sessions,
		ActiveSessions:      st.ActiveSessions,
		Subscribes:          st.Subscribes,
		Unsubscribes:        st.Unsubscribes,
		RateLimited:         st.RateLimited,
		QuotaRejected:       st.QuotaRejected,
		AdmitErrors:         st.AdmitErrors,
		DedupHits:           st.DedupHits,
		Admitted:            st.Admitted,
		Cancelled:           st.Cancelled,
		ActiveSubscriptions: st.ActiveSubscriptions,
		SharedQueries:       st.SharedQueries,
		Updates:             st.Updates,
		Epochs:              st.Epochs,
		Dropped:             st.Dropped,
		Evicted:             st.Evicted,
		ShedQueue:           st.ShedQueue,
		ShedDeadline:        st.ShedDeadline,
		ShedSubs:            st.ShedSubs,
		ShedBrownout:        st.ShedBrownout,
		BrownoutLevel:       st.BrownoutLevel,
		BrownoutEscalations: st.BrownoutEscalations,
		BrownoutRecoveries:  st.BrownoutRecoveries,
		Detaches:            st.Detaches,
		Attaches:            st.Attaches,
		Resumes:             st.Resumes,
		ResumeGaps:          st.ResumeGaps,
		RingDropped:         st.RingDropped,
		IdleReaped:          st.IdleReaped,
		Recoveries:          st.Recoveries,
		WALAppends:          st.WALAppends,
		WALCompactions:      st.WALCompactions,
		WALSizeBytes:        st.WALSizeBytes,
		DedupRatio:          st.DedupRatio(),
	}
}

// shared is one admitted in-network query and its subscriber set.
type shared struct {
	key  *internedKey
	qid  query.ID
	q    query.Query
	subs []*Subscription // ordered by SubID (monotonic), so fan-out is deterministic
}

// cmdKind discriminates staged commands.
type cmdKind uint8

const (
	cmdSubscribe cmdKind = iota + 1
	cmdUnsubscribe
	cmdCloseSession
)

// command is one staged client request, committed at the next Advance.
type command struct {
	kind cmdKind
	sess *Session
	seq  uint64
	q    query.Query // subscribe
	key  string      // subscribe
	sub  SubID       // unsubscribe
	done chan result
	// at is the wall-clock staging instant and deadline the subscribe's
	// sojourn budget through the mailbox (<= 0 falls back to
	// Config.MailboxDeadline). Wall clock never feeds the simulation:
	// shed commands leave no WAL record, so replay stays exact.
	at       time.Time
	deadline time.Duration
	// trace is the subscriber-propagated causal context (subscribe only):
	// the upstream trace ID and the span the commit should parent to. A
	// zero context derives a fresh deterministic trace at commit.
	trace tracing.Context
}

type result struct {
	sub *Subscription
	err error
}

// Ticket is the pending half of an asynchronous command; Wait blocks until
// the command commits at an Advance (or the gateway closes).
type Ticket struct {
	g    *Gateway
	done chan result
}

// Wait returns the committed command's outcome. For unsubscribe and
// session-close tickets the Subscription is nil.
func (t *Ticket) Wait() (*Subscription, error) {
	select {
	case r := <-t.done:
		return r.sub, r.err
	case <-t.g.done:
		// The loop exited; shutdown fails every staged command, but prefer
		// a result that raced in over the generic closed error.
		select {
		case r := <-t.done:
			return r.sub, r.err
		default:
			return nil, ErrClosed
		}
	}
}

// control messages handled immediately by the loop (not staged). The
// connection-state messages (register, detach, attach, resume) bypass the
// group-commit mailbox because they never touch the simulation — they only
// move session/channel plumbing — so handling them promptly keeps TCP
// reconnects snappy without costing determinism.
type registerReq struct {
	name  string
	reply chan result2[*Session]
}
type statsReq struct{ reply chan statsNow }
type statusReq struct{ reply chan Status }
type exportReq struct{ reply chan obs.RunExport }
type advanceReq struct {
	d     time.Duration
	reply chan advanceInfo
}
type advanceInfo struct {
	applied int
	now     sim.Time
	err     error
}
type detachReq struct {
	sess  *Session
	reply chan error
}
type attachReq struct {
	name  string
	token string
	reply chan result2[attachResult]
}
type attachResult struct {
	sess *Session
	subs []ResumeInfo
}
type resumeReq struct {
	sess  *Session
	id    SubID
	after uint64
	reply chan result2[*Subscription]
}
type crashReq struct{ reply chan struct{} }

// ResumeInfo describes one resumable subscription of a re-attached
// session, as returned by Gateway.Attach.
type ResumeInfo struct {
	ID      SubID
	Key     string
	QueryID query.ID
	// LastSeq is the stream's last delivered sequence number; a client that
	// has processed everything resumes with after=LastSeq.
	LastSeq uint64
}

type result2[T any] struct {
	v   T
	err error
}

// Gateway is the concurrent serving tier. Construct with New, drive
// virtual time with Advance (or a Server's pacer), and shut down with
// Close.
type Gateway struct {
	cfg    Config
	sim    *network.Simulation
	series *obs.Series

	inbox chan any
	done  chan struct{} // closed when the loop exits

	// sendMu serializes send against loop exit; sealed is set (under the
	// write lock) by seal once the loop will never read the inbox again.
	sendMu sync.RWMutex
	sealed bool

	closeOnce sync.Once
	closeErr  error

	// finalMu guards the post-Close snapshot.
	finalMu     sync.Mutex
	finalStats  Stats
	finalExp    obs.RunExport
	finalStatus Status

	// Loop-owned state.
	sessions map[string]*Session
	// keys interns canonical query keys; byKey is pointer-keyed off it, so
	// dedup lookups hash one word after the single intern of the incoming
	// key, and key equality anywhere on the loop is pointer equality.
	keys       *internTable
	byKey      map[*internedKey]*shared
	byQID      map[query.ID]*shared
	staged     []*command
	evictQueue []*Subscription // stalled subscribers awaiting removal at the next Advance
	nextSub    SubID
	stats      Stats
	// peakSubs is the high-water subscriber count of any single shared
	// query, used to presize new subscriber slices to the fan-out the
	// workload has already demonstrated.
	peakSubs int
	// brown is the loop-owned brownout ladder; brownLevel publishes its
	// rung for cross-goroutine reads (the server pacer and pre-stage
	// shedding), updated only at Advance boundaries.
	brown      *resilience.Brownout
	brownLevel atomic.Int32

	// WAL state (loop-owned; see wal.go).
	wal       *wal
	walLog    []walRecord // in-memory lifecycle records, for compaction
	walErr    error
	replaying bool
	advances  int64
}

// build constructs the gateway and its simulation without starting the
// actor loop — shared by New (fresh run) and Recover (replay first).
func build(cfg Config) (*Gateway, error) {
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.SessionQuota <= 0 {
		cfg.SessionQuota = DefaultSessionQuota
	}
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultRate
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	simCfg := cfg.Sim
	simCfg.DiscardResults = true
	s, err := network.New(simCfg)
	if err != nil {
		return nil, err
	}
	// Presize the hot maps from the configured admission bounds: sessions
	// from the session cap, the dedup cache from the most distinct queries
	// those sessions could hold. Both are capped so a generous config does
	// not preallocate megabytes for a small run.
	sessHint := sizeHint(cfg.MaxSessions, 1024)
	keyHint := sizeHint(cfg.MaxSessions*cfg.SessionQuota, 4096)
	g := &Gateway{
		cfg:      cfg,
		sim:      s,
		inbox:    make(chan any, 256),
		done:     make(chan struct{}),
		sessions: make(map[string]*Session, sessHint),
		keys:     newInternTable(keyHint),
		byKey:    make(map[*internedKey]*shared, keyHint),
		byQID:    make(map[query.ID]*shared, keyHint),
		nextSub:  1,
		brown:    resilience.NewBrownout(cfg.Brownout),
	}
	s.Results().OnRows = g.onRows
	s.Results().OnAggs = g.onAggs
	if cfg.Sample > 0 {
		g.series = s.StartSeries(cfg.Sample)
	}
	if cfg.OnSim != nil {
		cfg.OnSim(s)
	}
	return g, nil
}

// New builds the gateway and its simulation and starts the actor loop.
// With Config.WALPath set it starts a fresh write-ahead log (truncating
// any existing file); use Recover to resume from one instead.
func New(cfg Config) (*Gateway, error) {
	g, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if g.cfg.WALPath != "" {
		w, err := createWAL(g.cfg.WALPath)
		if err != nil {
			return nil, err
		}
		g.wal = w
	}
	go g.loop()
	return g, nil
}

// Series returns the attached virtual-time metrics series (nil unless
// Config.Sample was set). Read it only after Close.
func (g *Gateway) Series() *obs.Series { return g.series }

// send delivers a message to the loop, failing once the gateway is closed.
// The read lock is held across the enqueue: seal (run by the exiting loop
// after done closes) takes the write lock before draining the inbox, so a
// send that returns nil is guaranteed a reply from either the loop or the
// drain — never silently dropped.
func (g *Gateway) send(msg any) error {
	g.sendMu.RLock()
	defer g.sendMu.RUnlock()
	if g.sealed {
		return ErrClosed
	}
	select {
	case g.inbox <- msg:
		return nil
	case <-g.done:
		return ErrClosed
	}
}

// seal closes the mailbox after the loop has exited: once the write lock
// is acquired no sender can still be mid-enqueue, so the drain below
// answers every message that raced in ahead of the close. Runs on the
// loop goroutine (tail of shutdown/crash), after the finals are
// snapshotted and done is closed.
func (g *Gateway) seal() {
	g.sendMu.Lock()
	g.sealed = true
	g.sendMu.Unlock()
	for {
		select {
		case msg := <-g.inbox:
			g.reject(msg)
		default:
			return
		}
	}
}

// reject answers a mailbox message that arrived too late for the loop to
// process. Every reply channel is buffered, so none of these block.
func (g *Gateway) reject(msg any) {
	switch m := msg.(type) {
	case *command:
		m.done <- result{err: ErrClosed}
	case registerReq:
		m.reply <- result2[*Session]{err: ErrClosed}
	case statsReq:
		m.reply <- statsNow{stats: g.finalStats, now: g.sim.Engine().Now()}
	case statusReq:
		m.reply <- g.finalStatus
	case exportReq:
		m.reply <- g.finalExp
	case advanceReq:
		m.reply <- advanceInfo{now: g.sim.Engine().Now(), err: ErrClosed}
	case detachReq:
		m.reply <- ErrClosed
	case attachReq:
		m.reply <- result2[attachResult]{err: ErrClosed}
	case resumeReq:
		m.reply <- result2[*Subscription]{err: ErrClosed}
	case crashReq:
		m.reply <- struct{}{}
	case closeReq:
		m.reply <- nil
	}
}

// ErrClosed is returned for any command issued after Close.
var ErrClosed = fmt.Errorf("gateway: closed")

// sizeHint bounds a configuration-derived map presize so generous limits
// don't translate into large idle allocations.
func sizeHint(n, max int) int {
	if n > max {
		return max
	}
	if n < 0 {
		return 0
	}
	return n
}

// Register creates a session under a unique client-chosen name.
func (g *Gateway) Register(name string) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("gateway: empty session name")
	}
	req := registerReq{name: name, reply: make(chan result2[*Session], 1)}
	if err := g.send(req); err != nil {
		return nil, err
	}
	select {
	case r := <-req.reply:
		return r.v, r.err
	case <-g.done:
		return nil, ErrClosed
	}
}

// SubscribeAsync stages a subscription; it commits at the next Advance.
// Errors detectable without the simulation (parse-level validation,
// LIFETIME) fail immediately, as does a full mailbox (Config.MaxStaged or
// the brownout ladder). If the command then sits staged longer than
// req.Budget (Config.MailboxDeadline when zero) before the committing
// Advance reaches it, it is shed with a typed *resilience.OverloadError
// instead of applied. req.Trace.Trace becomes the subscription's trace ID
// and req.Trace.Span the parent of the commit's subscribe span, so an
// upstream tier (the federation router, the share coordinator, a wire
// client quoting trace_id) threads one causal path through this gateway; a
// zero context derives a fresh deterministic trace at commit.
func (s *Session) SubscribeAsync(req SubscribeRequest) (*Ticket, error) {
	n, key, err := canonicalize(req.Query)
	if err != nil {
		return nil, err
	}
	c := &command{
		kind:     cmdSubscribe,
		sess:     s,
		seq:      s.nextSeq(),
		q:        n,
		key:      key,
		done:     make(chan result, 1),
		at:       time.Now(),
		deadline: req.Budget,
		trace:    req.Trace,
	}
	if err := s.g.send(c); err != nil {
		return nil, err
	}
	return &Ticket{g: s.g, done: c.done}, nil
}

// Subscribe is SubscribeAsync plus waiting for the commit. It blocks until
// the next Advance tick.
func (s *Session) Subscribe(req SubscribeRequest) (*Subscription, error) {
	t, err := s.SubscribeAsync(req)
	if err != nil {
		return nil, err
	}
	return t.Wait()
}

// UnsubscribeAsync stages the removal of one subscription.
func (s *Session) UnsubscribeAsync(id SubID) (*Ticket, error) {
	c := &command{
		kind: cmdUnsubscribe,
		sess: s,
		seq:  s.nextSeq(),
		sub:  id,
		done: make(chan result, 1),
	}
	if err := s.g.send(c); err != nil {
		return nil, err
	}
	return &Ticket{g: s.g, done: c.done}, nil
}

// Unsubscribe removes one subscription, blocking until the next Advance.
func (s *Session) Unsubscribe(id SubID) error {
	t, err := s.UnsubscribeAsync(id)
	if err != nil {
		return err
	}
	_, err = t.Wait()
	return err
}

// CloseAsync stages the teardown of the whole session: every live
// subscription is unsubscribed and the name is released.
func (s *Session) CloseAsync() (*Ticket, error) {
	c := &command{
		kind: cmdCloseSession,
		sess: s,
		seq:  s.nextSeq(),
		done: make(chan result, 1),
	}
	if err := s.g.send(c); err != nil {
		return nil, err
	}
	return &Ticket{g: s.g, done: c.done}, nil
}

// Close tears the session down, blocking until the next Advance.
func (s *Session) Close() error {
	t, err := s.CloseAsync()
	if err != nil {
		return err
	}
	_, err = t.Wait()
	return err
}

// Advance commits every staged command in deterministic order, runs the
// simulation d of virtual time (fanning results out to subscribers), then
// refills the sessions' token buckets. It returns the number of commands
// committed. Only one driver should call Advance (a Server's pacer, the
// load generator, or a test); concurrent calls serialize. With a WAL
// enabled, a write or compaction failure is reported here — the log is the
// durability story, so it fails loudly rather than silently degrading.
func (g *Gateway) Advance(d time.Duration) (int, error) {
	req := advanceReq{d: d, reply: make(chan advanceInfo, 1)}
	if err := g.send(req); err != nil {
		return 0, err
	}
	select {
	case info := <-req.reply:
		return info.applied, info.err
	case <-g.done:
		return 0, ErrClosed
	}
}

// Detach releases the session's client without closing the session: every
// live subscription's channel closes with ReasonDetached and subsequent
// updates accumulate in bounded per-subscription resume rings. Any updates
// still buffered undelivered in a channel are moved into its ring, so a
// resuming client loses nothing that fits the bound. The Server calls this
// when a named client disconnects; Gateway.Attach re-claims the session.
func (s *Session) Detach() error {
	req := detachReq{sess: s, reply: make(chan error, 1)}
	if err := s.g.send(req); err != nil {
		return err
	}
	select {
	case err := <-req.reply:
		return err
	case <-s.g.done:
		return ErrClosed
	}
}

// Attach re-claims a detached session by name and resume token — after a
// client disconnect, or on a recovered gateway after a crash. It returns
// the session and, for each live subscription, the resume cursor a client
// needs to continue the stream with Session.Resume.
func (g *Gateway) Attach(name, token string) (*Session, []ResumeInfo, error) {
	req := attachReq{name: name, token: token, reply: make(chan result2[attachResult], 1)}
	if err := g.send(req); err != nil {
		return nil, nil, err
	}
	select {
	case r := <-req.reply:
		return r.v.sess, r.v.subs, r.err
	case <-g.done:
		return nil, nil, ErrClosed
	}
}

// Resume continues a detached subscription's stream: it returns a fresh
// Subscription handle (same SubID, new channel) whose channel starts with
// every retained update with Seq > after, then the live stream. If the
// bounded resume ring has already dropped updates the client needs, the
// stream restarts at the oldest retained one and the gap is counted in
// Stats.ResumeGaps — loss is bounded and visible, never silent.
func (s *Session) Resume(id SubID, after uint64) (*Subscription, error) {
	req := resumeReq{sess: s, id: id, after: after, reply: make(chan result2[*Subscription], 1)}
	if err := s.g.send(req); err != nil {
		return nil, err
	}
	select {
	case r := <-req.reply:
		return r.v, r.err
	case <-s.g.done:
		return nil, ErrClosed
	}
}

// Crash kills the gateway abruptly, simulating a process crash for tests
// and chaos scenarios: staged commands fail, attached subscribers' channels
// close with ReasonCrashed, and the WAL is abandoned mid-stream without a
// clean flush — whatever the file holds is what Recover gets, exactly as if
// the process had died. No queries are cancelled and no sessions drain;
// the in-memory state simply ceases to exist.
func (g *Gateway) Crash() error {
	req := crashReq{reply: make(chan struct{}, 1)}
	if err := g.send(req); err != nil {
		return err
	}
	// An accepted request is answered by the loop's crash or, if a close
	// raced in, by the seal drain — either way after the mailbox is sealed,
	// so a command sent once Crash has returned fails with ErrClosed.
	<-req.reply
	return nil
}

// Now returns the simulation's current virtual time.
func (g *Gateway) Now() (sim.Time, error) {
	st, err := g.statsAndNow()
	return st.now, err
}

// Stats returns a counter snapshot. After Close it returns the final
// snapshot.
func (g *Gateway) Stats() (Stats, error) {
	st, err := g.statsAndNow()
	return st.stats, err
}

type statsNow struct {
	stats Stats
	now   sim.Time
}

func (g *Gateway) statsAndNow() (statsNow, error) {
	req := statsReq{reply: make(chan statsNow, 1)}
	if err := g.send(req); err != nil {
		if err == ErrClosed {
			return g.finalStatsNow(), nil
		}
		return statsNow{}, err
	}
	select {
	case st := <-req.reply:
		return st, nil
	case <-g.done:
		return g.finalStatsNow(), nil
	}
}

func (g *Gateway) finalStatsNow() statsNow {
	g.finalMu.Lock()
	defer g.finalMu.Unlock()
	return statsNow{
		stats: g.finalStats,
		now:   sim.Time(g.finalExp.Metrics.SimulatedMS) * sim.Time(time.Millisecond),
	}
}

// Alive reports whether the gateway's actor loop is still running: false
// after Close or Crash, true again only on a gateway rebuilt by Recover.
// It is the readiness signal behind the admin plane's /readyz.
func (g *Gateway) Alive() bool {
	select {
	case <-g.done:
		return false
	default:
		return true
	}
}

// Spans returns the simulation's per-query lifecycle span log. The log is
// internally locked, so it may be snapshotted from any goroutine — and it
// remains readable after Close or Crash for post-mortem TTFR accounting.
func (g *Gateway) Spans() *telemetry.SpanLog { return g.sim.Spans() }

// Status is the operator-facing /statusz snapshot: the serving tier's
// current shape rather than its full counter history. Everything in it is
// deterministic under the group-commit ordering.
type Status struct {
	// Alive is false on the snapshot taken at Close or Crash.
	Alive bool `json:"alive"`
	// NowMS is the current virtual time, in milliseconds.
	NowMS int64 `json:"now_ms"`
	// Sessions counts registered sessions; Attached the subset currently
	// held by a client.
	Sessions int `json:"sessions"`
	Attached int `json:"attached"`
	// ActiveSubscriptions and SharedQueries mirror the Stats gauges;
	// DedupRatio is subscriptions per admitted network query.
	ActiveSubscriptions int     `json:"active_subscriptions"`
	SharedQueries       int     `json:"shared_queries"`
	DedupRatio          float64 `json:"dedup_ratio"`
	// WAL accounting (zero when the WAL is disabled).
	WALSizeBytes   int64 `json:"wal_size_bytes"`
	WALAppends     int64 `json:"wal_appends"`
	WALCompactions int64 `json:"wal_compactions"`
	// ResumeRings counts detached subscriptions buffering for a resume;
	// ResumeRingUpdates is the total updates parked across those rings
	// (the resume-ring occupancy).
	ResumeRings       int `json:"resume_rings"`
	ResumeRingUpdates int `json:"resume_ring_updates"`
	// Queries counts lifecycle spans recorded since the run began.
	Queries int `json:"queries"`
	// BrownoutLevel names the brownout ladder's current rung ("normal",
	// "no-replay", "batching", "shed"); Staged is the group-commit
	// mailbox's current depth.
	BrownoutLevel string `json:"brownout_level"`
	Staged        int    `json:"staged"`
}

// Status returns the /statusz snapshot. After Close or Crash it returns
// the final snapshot with Alive false.
func (g *Gateway) Status() (Status, error) {
	req := statusReq{reply: make(chan Status, 1)}
	if err := g.send(req); err != nil {
		if err == ErrClosed {
			return g.finalStatusSnap(), nil
		}
		return Status{}, err
	}
	select {
	case st := <-req.reply:
		return st, nil
	case <-g.done:
		return g.finalStatusSnap(), nil
	}
}

func (g *Gateway) finalStatusSnap() Status {
	g.finalMu.Lock()
	defer g.finalMu.Unlock()
	return g.finalStatus
}

// status builds the snapshot on the loop goroutine.
func (g *Gateway) status() Status {
	st := Status{
		Alive:               true,
		NowMS:               time.Duration(g.sim.Engine().Now()).Milliseconds(),
		Sessions:            len(g.sessions),
		ActiveSubscriptions: g.stats.ActiveSubscriptions,
		SharedQueries:       g.stats.SharedQueries,
		DedupRatio:          g.stats.DedupRatio(),
		WALSizeBytes:        g.stats.WALSizeBytes,
		WALAppends:          g.stats.WALAppends,
		WALCompactions:      g.stats.WALCompactions,
		Queries:             g.sim.Spans().Len(),
		BrownoutLevel:       g.brown.Level().String(),
		Staged:              len(g.staged),
	}
	for _, s := range g.sessions {
		if s.attached {
			st.Attached++
		}
		for _, sub := range s.live {
			if sub.detached {
				st.ResumeRings++
				st.ResumeRingUpdates += len(sub.ring)
			}
		}
	}
	return st
}

// Export builds the run's obs JSON envelope: manifest, final simulation
// metrics, optimizer state and the gateway counters. Everything in it is a
// pure function of the committed command sequence and the seed — no wall
// clock — so exports are byte-identical across client schedulings. After
// Close it returns the final export.
func (g *Gateway) Export() (obs.RunExport, error) {
	req := exportReq{reply: make(chan obs.RunExport, 1)}
	if err := g.send(req); err != nil {
		if err == ErrClosed {
			g.finalMu.Lock()
			defer g.finalMu.Unlock()
			return g.finalExp, nil
		}
		return obs.RunExport{}, err
	}
	select {
	case exp := <-req.reply:
		return exp, nil
	case <-g.done:
		g.finalMu.Lock()
		defer g.finalMu.Unlock()
		return g.finalExp, nil
	}
}

// Close drains the gateway: staged commands are rejected, every
// subscription ends with ReasonShutdown, every admitted query's reference
// count drops to zero and is cancelled, and the loop exits. Close is
// idempotent; the final Stats and Export remain readable.
func (g *Gateway) Close() error {
	g.closeOnce.Do(func() {
		// The sealed send path, not a bare inbox enqueue: after a crash
		// both the (buffered) inbox send and done are ready, and picking
		// the send would block forever on a reply the exited loop can
		// never give. A nil send is answered by the loop's shutdown or,
		// if a crash races in, by the seal drain.
		reply := make(chan error, 1)
		if err := g.send(closeReq{reply: reply}); err != nil {
			return // already crashed or closed; finals are frozen
		}
		select {
		case g.closeErr = <-reply:
		case <-g.done:
			select {
			case g.closeErr = <-reply:
			default:
			}
		}
	})
	return g.closeErr
}

type closeReq struct{ reply chan error }

// loop is the actor: the only goroutine that touches the simulation and
// the loop-owned session/cache state.
func (g *Gateway) loop() {
	for msg := range g.inbox {
		switch m := msg.(type) {
		case *command:
			if err := g.admitStage(m); err != nil {
				m.done <- result{err: err}
			} else {
				g.staged = append(g.staged, m)
			}
		case registerReq:
			m.reply <- g.register(m.name)
		case statsReq:
			m.reply <- statsNow{stats: g.stats, now: g.sim.Engine().Now()}
		case statusReq:
			m.reply <- g.status()
		case exportReq:
			m.reply <- g.export()
		case advanceReq:
			g.observePressure()
			g.sweepEvicted()
			applied := g.commit()
			g.reap()
			updatesBefore := g.stats.Updates
			g.sim.Run(m.d)
			g.traceFanout(g.stats.Updates - updatesBefore)
			g.refill(m.d)
			g.walAdvance()
			m.reply <- advanceInfo{applied: applied, now: g.sim.Engine().Now(), err: g.walErr}
		case detachReq:
			m.reply <- g.applyDetach(m.sess)
		case attachReq:
			m.reply <- g.applyAttach(m.name, m.token)
		case resumeReq:
			m.reply <- g.applyResume(m.sess, m.id, m.after)
		case crashReq:
			g.crash()
			m.reply <- struct{}{}
			return
		case closeReq:
			g.shutdown()
			m.reply <- nil
			return
		}
	}
}

// admitStage is stage-time admission control on the group-commit
// mailbox: subscribes are rejected while the staged queue sits at its
// MaxStaged bound or the brownout ladder sits at its shed rung.
// Unsubscribes and session closes are always staged — they free
// resources, and shedding them would only deepen an overload.
func (g *Gateway) admitStage(c *command) error {
	if c.kind != cmdSubscribe {
		return nil
	}
	if g.brown.Level() >= resilience.LevelShed {
		g.stats.ShedBrownout++
		return &resilience.OverloadError{RetryAfter: g.retryAfter(), Reason: "brownout"}
	}
	if g.cfg.MaxStaged > 0 && len(g.staged) >= g.cfg.MaxStaged {
		g.stats.ShedQueue++
		return &resilience.OverloadError{RetryAfter: g.retryAfter(), Reason: "queue"}
	}
	return nil
}

// retryAfter is the backoff hint handed to shed clients: the configured
// base, grown with mailbox depth so a deeper backlog pushes retries
// further out instead of re-synchronizing the herd at one instant.
func (g *Gateway) retryAfter() time.Duration {
	base := g.cfg.ShedRetryAfter
	if base <= 0 {
		base = DefaultShedRetryAfter
	}
	if g.cfg.MaxStaged > 0 && len(g.staged) > 0 {
		base += base * time.Duration(len(g.staged)/g.cfg.MaxStaged)
	}
	return base
}

// observePressure feeds the brownout ladder one mailbox-pressure reading
// per Advance (pressured = staged depth at half the MaxStaged bound or
// beyond) and publishes the rung. Without a MaxStaged bound there is no
// pressure signal and the ladder stays at LevelNormal.
func (g *Gateway) observePressure() {
	pressured := g.cfg.MaxStaged > 0 && len(g.staged)*2 >= g.cfg.MaxStaged
	lvl := g.brown.Observe(pressured)
	g.brownLevel.Store(int32(lvl))
	g.stats.BrownoutLevel = int(lvl)
	g.stats.BrownoutEscalations = g.brown.Escalations
	g.stats.BrownoutRecoveries = g.brown.Recoveries
}

// BrownoutLevel returns the brownout ladder's current rung. Readable
// from any goroutine (the server's pacer polls it between ticks); it
// only moves at Advance boundaries.
func (g *Gateway) BrownoutLevel() resilience.Level {
	return resilience.Level(g.brownLevel.Load())
}

func (g *Gateway) register(name string) result2[*Session] {
	if _, dup := g.sessions[name]; dup {
		return result2[*Session]{err: fmt.Errorf("gateway: session %q already registered", name)}
	}
	if len(g.sessions) >= g.cfg.MaxSessions {
		return result2[*Session]{err: fmt.Errorf("gateway: session limit %d reached", g.cfg.MaxSessions)}
	}
	now := g.sim.Engine().Now()
	s := &Session{
		g:         g,
		name:      name,
		token:     g.newToken(name),
		live:      make(map[SubID]*Subscription, g.cfg.SessionQuota),
		tokens:    g.cfg.Burst,
		ready:     make(Signal, 1),
		attached:  true,
		idleSince: now,
	}
	g.sessions[name] = s
	g.stats.Sessions++
	g.stats.ActiveSessions = len(g.sessions)
	// Flush immediately: the client is about to hold this token, so it must
	// survive a crash that hits before the next Advance.
	g.walAppend(walRecord{Op: walOpRegister, At: int64(now), Sess: name, Token: s.token})
	g.walFlush()
	return result2[*Session]{v: s}
}

// newToken derives a session's resume token from the seed, the name and the
// registration ordinal via FNV-1a — deterministic, so recovery determinism
// tests can reproduce it, and unique per registration.
func (g *Gateway) newToken(name string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", g.cfg.Sim.Seed, name, g.stats.Sessions)
	return fmt.Sprintf("%016x", h.Sum64())
}

// applyDetach releases the session's client. Idempotent: detaching a
// detached session is a no-op.
func (g *Gateway) applyDetach(s *Session) error {
	if s.closed {
		return fmt.Errorf("gateway: session %q is closed", s.name)
	}
	if !s.attached {
		return nil
	}
	s.attached = false
	s.idleSince = g.sim.Engine().Now()
	g.stats.Detaches++
	ids := make([]SubID, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sub := s.live[id]
		if sub.detached {
			continue
		}
		sub.reason = ReasonDetached
		// Move updates the client never read out of the channel into the
		// resume ring, then close; a prompt resume replays them losslessly.
	drain:
		for {
			select {
			case u := <-sub.ch:
				g.ringPush(sub, u)
			default:
				break drain
			}
		}
		close(sub.ch)
		sub.detached = true
	}
	s.ready.Raise()
	return nil
}

func (g *Gateway) applyAttach(name, token string) result2[attachResult] {
	s := g.sessions[name]
	if s == nil {
		return result2[attachResult]{err: fmt.Errorf("gateway: no session %q", name)}
	}
	if s.token != token {
		return result2[attachResult]{err: fmt.Errorf("gateway: bad resume token for session %q", name)}
	}
	if s.attached {
		return result2[attachResult]{err: fmt.Errorf("gateway: session %q is already attached", name)}
	}
	s.attached = true
	g.stats.Attaches++
	ids := make([]SubID, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	subs := make([]ResumeInfo, 0, len(ids))
	for _, id := range ids {
		sub := s.live[id]
		subs = append(subs, ResumeInfo{ID: id, Key: sub.key.String(), QueryID: sub.qid, LastSeq: sub.seq})
	}
	return result2[attachResult]{v: attachResult{sess: s, subs: subs}}
}

func (g *Gateway) applyResume(s *Session, id SubID, after uint64) result2[*Subscription] {
	if s.closed {
		return result2[*Subscription]{err: fmt.Errorf("gateway: session %q is closed", s.name)}
	}
	old, ok := s.live[id]
	if !ok {
		return result2[*Subscription]{err: fmt.Errorf("gateway: session %q has no subscription %d", s.name, id)}
	}
	if !old.detached {
		return result2[*Subscription]{err: fmt.Errorf("gateway: subscription %d is still attached", id)}
	}
	if after > old.seq {
		return result2[*Subscription]{err: fmt.Errorf("gateway: resume after seq %d but only %d delivered", after, old.seq)}
	}
	fresh := &Subscription{
		id:     old.id,
		sess:   s,
		key:    old.key,
		qid:    old.qid,
		shared: old.shared,
		seq:    old.seq,
		ch:     make(chan Update, g.cfg.Buffer),
	}
	// A gap means the bounded ring already shed updates the client still
	// needs; the stream restarts at the oldest retained one.
	if len(old.ring) > 0 {
		if old.ring[0].Seq > after+1 {
			g.stats.ResumeGaps++
		}
	} else if old.seq > after {
		g.stats.ResumeGaps++
	}
	for _, u := range old.ring {
		if u.Seq > after {
			fresh.ch <- u // ring is bounded by the channel's capacity
		}
	}
	s.live[id] = fresh
	if sh := g.byQID[old.qid]; sh != nil {
		for i, x := range sh.subs {
			if x == old {
				sh.subs[i] = fresh
				break
			}
		}
	}
	g.stats.Resumes++
	return result2[*Subscription]{v: fresh}
}

// commit applies every staged command in (session name, sequence) order —
// the group-commit step that makes concurrent clients deterministic.
func (g *Gateway) commit() int {
	if len(g.staged) == 0 {
		return 0
	}
	batch := g.staged
	g.staged = nil
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].sess.name != batch[j].sess.name {
			return batch[i].sess.name < batch[j].sess.name
		}
		return batch[i].seq < batch[j].seq
	})
	now := int64(g.sim.Engine().Now())
	wall := time.Now()
	for _, c := range batch {
		switch c.kind {
		case cmdSubscribe:
			if err := g.checkDeadline(c, wall); err != nil {
				g.traceShed(c, now, "deadline")
				c.done <- result{err: err}
				continue
			}
			sub, err := g.applySubscribe(c)
			if err == nil {
				g.walAppend(walRecord{Op: walOpSubscribe, At: now, Sess: c.sess.name, Sub: sub.id, Query: c.key, Trace: sub.trace})
			}
			c.done <- result{sub: sub, err: err}
		case cmdUnsubscribe:
			err := g.applyUnsubscribe(c.sess, c.sub, ReasonUnsubscribed)
			if err == nil {
				g.walAppend(walRecord{Op: walOpUnsubscribe, At: now, Sess: c.sess.name, Sub: c.sub})
			}
			c.done <- result{err: err}
		case cmdCloseSession:
			err := g.applyCloseSession(c.sess)
			if err == nil {
				g.walAppend(walRecord{Op: walOpClose, At: now, Sess: c.sess.name})
			}
			c.done <- result{err: err}
		}
	}
	return len(batch)
}

// checkDeadline sheds a staged subscribe that out-sat its mailbox
// deadline budget — the CoDel-style control on the group-commit queue:
// under sustained pressure the stage-to-commit sojourn grows, and work
// that blew its budget is dropped at the commit boundary before it costs
// the simulation anything. Shed commands never reach the WAL, so
// crash-recovery replay stays exact.
func (g *Gateway) checkDeadline(c *command, wall time.Time) error {
	budget := c.deadline
	if budget <= 0 {
		budget = g.cfg.MailboxDeadline
	}
	if budget <= 0 || c.at.IsZero() || wall.Sub(c.at) <= budget {
		return nil
	}
	g.stats.ShedDeadline++
	return &resilience.OverloadError{RetryAfter: g.retryAfter(), Reason: "deadline"}
}

func (g *Gateway) applySubscribe(c *command) (*Subscription, error) {
	s := c.sess
	if s.closed {
		return nil, fmt.Errorf("gateway: session %q is closed", s.name)
	}
	if g.cfg.MaxLiveSubs > 0 && g.stats.ActiveSubscriptions >= g.cfg.MaxLiveSubs {
		g.stats.ShedSubs++
		return nil, &resilience.OverloadError{RetryAfter: g.retryAfter(), Reason: "subs"}
	}
	if len(s.live) >= g.cfg.SessionQuota {
		g.stats.QuotaRejected++
		return nil, fmt.Errorf("gateway: session %q at its quota of %d subscriptions", s.name, g.cfg.SessionQuota)
	}
	if s.tokens < 1 {
		g.stats.RateLimited++
		return nil, fmt.Errorf("gateway: session %q rate-limited (%.2g tokens; %g/simulated-second, burst %g)",
			s.name, s.tokens, g.cfg.Rate, g.cfg.Burst)
	}
	sub, err := g.admitSub(s, g.nextSub, c.q, c.key, make(chan Update, g.cfg.Buffer))
	if err != nil {
		return nil, err
	}
	g.nextSub++
	s.tokens--
	g.traceAdmit(sub, c.trace)
	return sub, nil
}

// traceShard is the shard ordinal stamped on this gateway's spans
// (tracing.NoShard unless the serve CLI mounted it as a federation
// member).
func (g *Gateway) traceShard() int {
	if g.cfg.TraceShard > 0 {
		return g.cfg.TraceShard - 1
	}
	return tracing.NoShard
}

func (g *Gateway) nowMS() int64 {
	return time.Duration(g.sim.Engine().Now()).Milliseconds()
}

// traceAdmit assigns the committed subscription its causal trace context
// and records the subscribe hop plus its admit/dedup-hit child span. tc
// is the subscriber-propagated context; a zero context derives the trace
// deterministically from the session name and SubID, so the same command
// sequence yields the same IDs on every run and after every recovery.
func (g *Gateway) traceAdmit(sub *Subscription, tc tracing.Context) {
	if g.cfg.Tracer == nil {
		return
	}
	sub.trace = tc.Trace
	if sub.trace == 0 {
		sub.trace = tracing.TraceID(sub.sess.name, uint64(sub.id))
	}
	at := g.nowMS()
	sub.admitAtMS = at
	shard := g.traceShard()
	sub.spanID = g.cfg.Tracer.Record(tracing.Span{
		Trace:  sub.trace,
		Parent: tc.Span,
		Kind:   tracing.KindSubscribe,
		Shard:  shard,
		AtMS:   at,
		Seq:    uint64(sub.id),
	})
	kind := tracing.KindAdmit
	if sub.shared {
		kind = tracing.KindDedupHit
	}
	g.cfg.Tracer.Record(tracing.Span{
		Trace:  sub.trace,
		Parent: sub.spanID,
		Kind:   kind,
		Shard:  shard,
		AtMS:   at,
		Note:   sub.key.String(),
	})
}

// traceFanout records one tier-level span per Advance round that
// delivered anything: the fan-out burst size and the brownout rung it
// ran under. Tier-level spans carry trace 0 and group together in
// exports.
func (g *Gateway) traceFanout(delivered int64) {
	if g.cfg.Tracer == nil || delivered <= 0 {
		return
	}
	g.cfg.Tracer.Record(tracing.Span{
		Kind:  tracing.KindFanout,
		Shard: g.traceShard(),
		AtMS:  g.nowMS(),
		Seq:   uint64(delivered),
		Rung:  g.stats.BrownoutLevel,
	})
}

// traceShed records an admission-shed hop for subscribers that
// propagated a trace context; derived traces do not exist yet at shed
// time, so untraced sheds stay metric-only.
func (g *Gateway) traceShed(c *command, atNS int64, why string) {
	if g.cfg.Tracer == nil || c.trace.Trace == 0 {
		return
	}
	g.cfg.Tracer.Record(tracing.Span{
		Trace:  c.trace.Trace,
		Parent: c.trace.Span,
		Kind:   tracing.KindShed,
		Shard:  g.traceShard(),
		AtMS:   time.Duration(atNS).Milliseconds(),
		Note:   why,
	})
}

// admitSub runs the dedup-or-admit path and inserts the subscription. It is
// the part of applySubscribe below admission control, shared with WAL
// replay (which bypasses quota, rate limit and ID allocation — the original
// run already passed them). A nil ch makes the subscription detached from
// birth, delivering into its resume ring.
func (g *Gateway) admitSub(s *Session, id SubID, q query.Query, key string, ch chan Update) (*Subscription, error) {
	// The one string hash on the admission path: everything downstream —
	// the dedup lookup, removal, equality — keys on the interned pointer.
	k := g.keys.intern(key)
	sh, hit := g.byKey[k]
	if !hit {
		qid, err := g.sim.Post(q)
		if err != nil {
			g.stats.AdmitErrors++
			g.keys.drop(k)
			return nil, fmt.Errorf("gateway: admit %q: %w", key, err)
		}
		// Presize the subscriber set to the largest fan-out any query has
		// reached so far: under dedup-heavy load (the workload this system
		// exists for) a new shared query tends to accumulate a similar
		// subscriber count, so the slice grows once instead of log(n) times.
		sh = &shared{key: k, qid: qid, q: q, subs: make([]*Subscription, 0, g.peakSubs)}
		g.byKey[k] = sh
		g.byQID[qid] = sh
		g.stats.Admitted++
	} else {
		g.stats.DedupHits++
	}
	sub := &Subscription{
		id:       id,
		sess:     s,
		key:      k,
		qid:      sh.qid,
		shared:   hit,
		ch:       ch,
		detached: ch == nil,
	}
	sh.subs = append(sh.subs, sub) // SubIDs are monotonic: stays ordered
	if len(sh.subs) > g.peakSubs {
		g.peakSubs = len(sh.subs)
	}
	s.live[sub.id] = sub
	g.stats.Subscribes++
	g.stats.ActiveSubscriptions++
	g.stats.SharedQueries = len(g.byKey)
	return sub, nil
}

func (g *Gateway) applyUnsubscribe(s *Session, id SubID, reason CloseReason) error {
	sub, ok := s.live[id]
	if !ok {
		return fmt.Errorf("gateway: session %q has no subscription %d", s.name, id)
	}
	g.removeSub(sub, reason)
	if reason == ReasonUnsubscribed {
		g.stats.Unsubscribes++
	}
	return nil
}

// removeSub detaches a subscription from its session and shared query,
// closes its stream, and cancels the query when the last reference drops.
func (g *Gateway) removeSub(sub *Subscription, reason CloseReason) {
	s := sub.sess
	delete(s.live, sub.id)
	sub.reason = reason
	if !sub.detached {
		close(sub.ch)
		s.ready.Raise()
	}
	sub.ring = nil
	g.stats.ActiveSubscriptions--

	sh := g.byQID[sub.qid]
	if sh == nil {
		return
	}
	for i, x := range sh.subs {
		if x == sub {
			sh.subs = append(sh.subs[:i], sh.subs[i+1:]...)
			break
		}
	}
	if len(sh.subs) == 0 {
		delete(g.byKey, sh.key)
		g.keys.drop(sh.key)
		delete(g.byQID, sh.qid)
		if err := g.sim.Cancel(sh.qid); err == nil {
			g.stats.Cancelled++
		}
	}
	g.stats.SharedQueries = len(g.byKey)
}

func (g *Gateway) applyCloseSession(s *Session) error {
	if s.closed {
		return fmt.Errorf("gateway: session %q already closed", s.name)
	}
	ids := make([]SubID, 0, len(s.live))
	for id := range s.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		g.removeSub(s.live[id], ReasonUnsubscribed)
		g.stats.Unsubscribes++
	}
	s.closed = true
	delete(g.sessions, s.name)
	g.stats.ActiveSessions = len(g.sessions)
	return nil
}

// refill tops up every session's token bucket for d of elapsed virtual
// time.
func (g *Gateway) refill(d time.Duration) {
	add := g.cfg.Rate * d.Seconds()
	for _, s := range g.sessions {
		s.tokens += add
		if s.tokens > g.cfg.Burst {
			s.tokens = g.cfg.Burst
		}
	}
}

// onRows and onAggs run on the loop goroutine, inside sim.Run, as the
// simulation delivers user result epochs. They range over sh.subs in place:
// push never mutates it (eviction is deferred to sweepEvicted).
func (g *Gateway) onRows(ur core.UserRows) {
	sh := g.byQID[ur.QueryID]
	if sh == nil {
		return
	}
	g.stats.Epochs++
	now := time.Now()
	for _, sub := range sh.subs {
		g.push(sub, Update{
			Sub:      sub.id,
			QueryID:  ur.QueryID,
			At:       ur.Time,
			Rows:     ur.Rows,
			Enqueued: now,
		})
	}
}

func (g *Gateway) onAggs(ua core.UserAgg) {
	sh := g.byQID[ua.QueryID]
	if sh == nil {
		return
	}
	g.stats.Epochs++
	now := time.Now()
	for _, sub := range sh.subs {
		g.push(sub, Update{
			Sub:      sub.id,
			QueryID:  ua.QueryID,
			At:       ua.Time,
			Aggs:     ua.Results,
			Enqueued: now,
		})
	}
}

// push delivers one update without ever blocking the simulation. Every
// delivery attempt stamps the next sequence number. A detached subscriber
// accumulates into its bounded resume ring (oldest shed first). An attached
// subscriber whose buffer is full has stalled past its bound: the update is
// dropped and the subscriber is marked for eviction — the removal itself
// (and its query cancellation) waits for the next Advance boundary, so
// every state change the WAL must record happens at a commit point and
// crash-recovery replay stays exact.
func (g *Gateway) push(sub *Subscription, u Update) {
	sub.seq++
	u.Seq = sub.seq
	// Provenance stamping is plain value writes — no allocation on the
	// fan-out hot path, whether tracing is mounted or not.
	u.Trace = sub.trace
	u.Prov.Rung = uint8(g.stats.BrownoutLevel)
	if g.cfg.TraceShard > 0 {
		u.Prov.Shards = 1 << uint(g.cfg.TraceShard-1)
	}
	if sub.seq == 1 && sub.trace != 0 && !g.replaying {
		// One bounded span per subscription: the first delivered result,
		// with the admit-to-first-result latency as the hop duration.
		at := time.Duration(u.At).Milliseconds()
		g.cfg.Tracer.Record(tracing.Span{
			Trace:  sub.trace,
			Parent: sub.spanID,
			Kind:   tracing.KindFirstResult,
			Shard:  g.traceShard(),
			AtMS:   at,
			DurMS:  at - sub.admitAtMS,
			Seq:    1,
		})
	}
	if sub.detached {
		g.ringPush(sub, u)
		g.stats.Updates++
		return
	}
	select {
	case sub.ch <- u:
		g.stats.Updates++
		sub.sess.ready.Raise()
	default:
		g.stats.Dropped++
		sub.sess.dropped++
		if !sub.evict {
			sub.evict = true
			g.stats.Evicted++
			g.evictQueue = append(g.evictQueue, sub)
		}
	}
}

// ringPush appends to a detached subscription's resume ring, shedding the
// oldest update once the bound is hit. Drops during recovery replay are not
// counted — those updates were delivered live before the crash.
func (g *Gateway) ringPush(sub *Subscription, u Update) {
	if len(sub.ring) >= g.cfg.Buffer {
		sub.ring = sub.ring[1:]
		if !g.replaying {
			g.stats.RingDropped++
		}
	}
	sub.ring = append(sub.ring, u)
}

// sweepEvicted removes the subscribers push marked as stalled. Runs first
// in every Advance, before the staged commands commit.
func (g *Gateway) sweepEvicted() {
	if len(g.evictQueue) == 0 {
		return
	}
	queue := g.evictQueue
	g.evictQueue = nil
	now := int64(g.sim.Engine().Now())
	for _, sub := range queue {
		if cur, ok := sub.sess.live[sub.id]; !ok || cur != sub {
			continue // already removed (or resumed afresh) in the meantime
		}
		g.removeSub(sub, ReasonEvicted)
		g.walAppend(walRecord{Op: walOpUnsubscribe, At: now, Sess: sub.sess.name, Sub: sub.id})
	}
}

// reap closes detached sessions that have sat idle past the timeout; their
// queries cancel once unreferenced. Runs at every Advance, after the
// staged commands commit.
func (g *Gateway) reap() {
	if g.cfg.IdleTimeout <= 0 {
		return
	}
	now := g.sim.Engine().Now()
	var names []string
	for name, s := range g.sessions {
		if !s.attached && now-s.idleSince >= g.cfg.IdleTimeout {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if g.applyCloseSession(g.sessions[name]) == nil {
			g.stats.IdleReaped++
			g.walAppend(walRecord{Op: walOpClose, At: int64(now), Sess: name})
		}
	}
}

func (g *Gateway) export() obs.RunExport {
	m := g.sim.Manifest()
	m.Study = "gateway"
	m.Chaos = g.cfg.ChaosLabel
	m.DurationMS = time.Duration(g.sim.Engine().Now()).Milliseconds()
	m.Runs = 1
	gm := g.stats.Metrics()
	exp := obs.RunExport{
		Manifest: m.Hashed(),
		Metrics:  obs.CollectFinal(g.sim.Metrics(), time.Duration(g.sim.Engine().Now()), defaultEnergy),
		Gateway:  &gm,
		Spans:    obs.SummarizeSpans(g.sim.Spans().Snapshot()),
		Series:   g.series,
	}
	if opt := g.sim.Optimizer(); opt != nil {
		exp.Optimizer = &obs.OptimizerState{
			UserQueries:      opt.UserCount(),
			SyntheticQueries: opt.SyntheticCount(),
		}
	}
	if g.cfg.Tracer != nil {
		exp.Traces = tracing.Collect(g.cfg.Tracer)
	}
	return exp
}

// Tracer returns the flight recorder the gateway was mounted with (nil
// when untraced). The recorder is caller-owned and remains readable
// after Close or Crash.
func (g *Gateway) Tracer() *tracing.Recorder { return g.cfg.Tracer }

// shutdown ends every session, fails the staged commands and snapshots the
// final state for post-Close reads. The WAL is flushed and closed cleanly;
// a clean shutdown is not a crash, but the log is left valid so a later
// Recover still works.
func (g *Gateway) shutdown() {
	for _, c := range g.staged {
		c.done <- result{err: ErrClosed}
	}
	g.staged = nil

	names := make([]string, 0, len(g.sessions))
	for name := range g.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := g.sessions[name]
		ids := make([]SubID, 0, len(s.live))
		for id := range s.live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			g.removeSub(s.live[id], ReasonShutdown)
		}
		s.closed = true
		delete(g.sessions, name)
	}
	g.stats.ActiveSessions = 0

	if g.wal != nil {
		g.wal.close()
		g.wal = nil
	}

	g.finalMu.Lock()
	g.finalStats = g.stats
	g.finalExp = g.export()
	g.finalStatus = g.status()
	g.finalStatus.Alive = false
	g.finalMu.Unlock()
	close(g.done)
	g.seal()
}

// crash is shutdown's violent sibling: nothing drains, nothing cancels,
// nothing flushes. Attached subscribers see ReasonCrashed; the WAL file is
// abandoned exactly as the last flush left it (buffered bytes are lost,
// like a real process death); the final stats and export stay readable for
// post-mortem assertions.
func (g *Gateway) crash() {
	for _, c := range g.staged {
		c.done <- result{err: ErrClosed}
	}
	g.staged = nil
	// The flight recorder is caller-owned and survives the crash; the
	// crash itself is the last span this incarnation records.
	g.cfg.Tracer.Record(tracing.Span{
		Kind:  tracing.KindCrash,
		Shard: g.traceShard(),
		AtMS:  g.nowMS(),
	})

	if g.wal != nil {
		g.wal.f.Close() // no flush: simulate losing the process mid-stream
		g.wal = nil
	}

	names := make([]string, 0, len(g.sessions))
	for name := range g.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := g.sessions[name]
		ids := make([]SubID, 0, len(s.live))
		for id := range s.live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			sub := s.live[id]
			if !sub.detached {
				sub.reason = ReasonCrashed
				close(sub.ch)
				sub.detached = true
			}
		}
		s.ready.Raise()
	}

	g.finalMu.Lock()
	g.finalStats = g.stats
	g.finalExp = g.export()
	g.finalStatus = g.status()
	g.finalStatus.Alive = false
	g.finalMu.Unlock()
	close(g.done)
	g.seal()
}
