// Package gateway is the concurrent multi-client query-serving tier in
// front of the single-threaded sensor-network simulation: the base
// station's front door. Many client goroutines (or TCP connections, see
// Server) register sessions, subscribe to TinyDB-dialect queries and
// stream per-epoch results back. One mutex guards the network.Simulation,
// its discrete-event engine and the session state; the session machine
// itself — sessions, staged commands, tickets, per-subscriber streams,
// detach/resume, eviction, idle reaping — is the tier kernel the federation
// router and the share coordinator also run on (internal/tier), and this
// package supplies the policy in its hooks.
//
// The bridge between the two worlds is a group-commit mailbox: client
// commands (subscribe, unsubscribe, session close) are staged as they
// arrive and committed only at the next Advance call, sorted by (session
// name, per-session sequence number). A client's own commands therefore
// apply in its program order, concurrent clients apply in a fixed total
// order regardless of goroutine scheduling, and the simulation — including
// every exported metric — stays byte-for-byte deterministic under
// arbitrary client concurrency, provided each Advance's command set is
// submitted before the tick (which the round-driven chaos drills and the
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/tracing"
)

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
	DefaultShedRetryAfter = tier.DefaultShedRetryAfter
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
	// OnSim, when set, runs against the freshly built simulation before it
	// serves anything — in New and again inside Recover, so
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

// The serving vocabulary and the session machine are the kernel's
// (internal/tier); these are the names the rest of the repository uses.
type (
	SubID            = tier.SubID
	CloseReason      = tier.CloseReason
	Update           = tier.Update
	ResumeInfo       = tier.ResumeInfo
	SubscribeRequest = tier.SubscribeRequest
	Signal           = tier.Signal
	// Stats is the gateway's counter snapshot.
	Stats = tier.Counters
	// Session is one registered client. Its methods may be called from any
	// goroutine; commands issued from a single goroutine apply in issue
	// order.
	Session = tier.Session
	// Subscription is one client's handle on a (possibly shared) query
	// stream. Its reader waits on the session's Ready and takes the epochs
	// pushed since its last take (Session.Read, Take) until the stream
	// ends; Reason then reports why.
	Subscription = tier.Sub
	// Ticket is the pending half of an asynchronous command; Wait blocks
	// until the command commits at an Advance (or the gateway closes).
	Ticket = tier.Ticket
)

const (
	ReasonNone         = tier.ReasonNone
	ReasonUnsubscribed = tier.ReasonUnsubscribed
	ReasonEvicted      = tier.ReasonEvicted
	ReasonShutdown     = tier.ReasonShutdown
	ReasonDetached     = tier.ReasonDetached
	ReasonCrashed      = tier.ReasonCrashed
)

// ErrClosed is returned for any command issued after Close.
var ErrClosed = tier.ErrClosed

// Gateway is the concurrent serving tier. Construct with New, drive
// virtual time with Advance (or a Server's pacer), and shut down with
// Close.
type Gateway struct {
	cfg    Config
	sim    *network.Simulation
	series *network.Series

	// mu guards the simulation and everything below; the kernel's hooks and
	// the simulation's result callbacks run with it held.
	mu sync.Mutex
	// k is the session machine: sessions, staged commands, tickets and
	// per-subscriber streams.
	k *tier.Kernel
	// byKey and byQID index the admitted in-network queries — each the
	// group of its subscribers — by canonical text (the dedup cache) and by
	// in-network id.
	byKey map[string]*tier.Group
	byQID map[query.ID]*tier.Group
	// buckets holds each open session's subscribe tokens.
	buckets map[string]float64
	// evicted are the subscribers Deliver dropped since the last Advance,
	// awaiting their WAL record and their query's cancellation.
	evicted []*Subscription
	// stats holds the gateway's own counters; the kernel's are overlaid on
	// every snapshot.
	stats Stats
	// brown is the brownout ladder; brownLevel publishes its rung for
	// lock-free reads (the server pacer and pre-stage shedding), updated
	// only at Advance boundaries.
	brown      *resilience.Brownout
	brownLevel atomic.Int32

	// WAL state (see wal.go).
	wal       *wal
	walLog    []walRecord // in-memory lifecycle records, for compaction
	walErr    error
	replaying bool
	advances  int64
}

// build constructs the gateway and its simulation — shared by New (fresh
// run) and Recover (replay first).
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
	// Presize the dedup cache from the most distinct queries the configured
	// sessions could hold, capped so a generous config does not preallocate
	// megabytes for a small run.
	keyHint := min(max(cfg.MaxSessions*cfg.SessionQuota, 0), 4096)
	g := &Gateway{
		cfg:     cfg,
		sim:     s,
		byKey:   make(map[string]*tier.Group, keyHint),
		byQID:   make(map[query.ID]*tier.Group, keyHint),
		buckets: make(map[string]float64),
		brown:   resilience.NewBrownout(cfg.Brownout),
	}
	kcfg := tier.Config{
		Name:            "gateway",
		Mu:              &g.mu,
		Buffer:          cfg.Buffer,
		MaxSessions:     cfg.MaxSessions,
		SessionQuota:    cfg.SessionQuota,
		MailboxDeadline: cfg.MailboxDeadline,
		Now:             s.Engine().Now,
		Token:           g.mintTokenLocked,
		AdmitStage:      g.admitStageLocked,
		ApplySubscribe:  g.applySubscribeLocked,
		ReleaseGroup:    g.releaseGroupLocked,
		Unsubscribed:    g.walUnsubscribe,
		CloseSession: func(s *Session) {
			delete(g.buckets, s.Name())
			g.walAppend(walRecord{Op: walOpClose, Sess: s.Name()})
		},
	}
	if cfg.Tracer != nil {
		kcfg.Span = g.recordSpan
	}
	g.k = tier.New(kcfg)
	s.Results().OnRows = func(ur core.UserRows) { g.deliver(Update{QueryID: ur.QueryID, At: ur.Time, Rows: ur.Rows}) }
	s.Results().OnAggs = func(ua core.UserAgg) { g.deliver(Update{QueryID: ua.QueryID, At: ua.Time, Aggs: ua.Results}) }
	if cfg.Sample > 0 {
		g.series = s.StartSeries(cfg.Sample)
	}
	if cfg.OnSim != nil {
		cfg.OnSim(s)
	}
	return g, nil
}

// New builds the gateway and its simulation. With Config.WALPath set it
// starts a fresh write-ahead log (truncating any existing file); use
// Recover to resume from one instead.
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
	return g, nil
}

// Series returns the attached virtual-time metrics series (nil unless
// Config.Sample was set). Read it only after Close.
func (g *Gateway) Series() *network.Series { return g.series }

// Register creates a session under a unique client-chosen name; Attach
// re-claims a detached one by name and resume token — after a client
// disconnect, or on a recovered gateway after a crash — and returns, for
// each live subscription, the resume cursor a client needs to continue the
// stream with Session.Resume.
func (g *Gateway) Register(name string) (*Session, error) { return g.k.Register(name) }
func (g *Gateway) Attach(name, token string) (*Session, []ResumeInfo, error) {
	return g.k.Attach(name, token)
}

func (g *Gateway) now() sim.Time { return g.sim.Engine().Now() }

func (g *Gateway) nowMS() int64 { return time.Duration(g.now()).Milliseconds() }

// Advance commits every staged command in deterministic order, runs the
// simulation d of virtual time (fanning results out to subscribers), then
// refills the sessions' token buckets. It returns the number of commands
// committed. Only one driver should call Advance (a Server's pacer, a chaos
// drill, or a test); concurrent calls serialize. With a WAL
// enabled, a write or compaction failure is reported here — the log is the
// durability story, so it fails loudly rather than silently degrading.
//
// Every state change the WAL records happens at this commit boundary, in
// this order: the subscribers evicted during the previous quantum, the
// staged commands, the idle sessions. Replay therefore re-applies each at
// the instant, and in the order, it first applied.
//
// The work runs on a goroutine of its own and the caller waits for it. A
// caller that drives Advance in a closed loop would otherwise keep its
// processor through a CPU-bound quantum with the clients its commit just
// readied (a Subscribe about to return) queued behind it; parked, it hands
// them the processor at once, and the hand-offs keep a second processor
// awake for the sockets. Measured on the 144-node workload: a subscribe's
// ack takes 1.3–1.6× as long without this.
func (g *Gateway) Advance(d time.Duration) (applied int, err error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		applied, err = g.Step(d)
	}()
	<-done
	return applied, err
}

// Step is Advance without the hand-off: the quantum runs on the caller's
// goroutine. It is for a caller that is itself a tier's Advance — the
// federation router steps its shards in place under its own lock — where a
// hop per shard buys nothing.
// A driver (a Server's pacer, a chaos drill, a test) calls Advance.
func (g *Gateway) Step(d time.Duration) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.k.ClosedLocked() {
		return 0, ErrClosed
	}
	g.observePressure()
	g.sweepEvictedLocked()
	applied, acks := g.k.CommitLocked()
	// A gateway group needs no upstream resolution, so the subscribes are
	// acked before the quantum runs, not after it.
	g.k.AckLocked(acks)
	g.k.ReapLocked(g.cfg.IdleTimeout)
	before := g.k.StatsLocked().Updates
	g.sim.Run(d)
	g.traceFanout(g.k.StatsLocked().Updates - before)
	g.refill(d)
	g.walAdvance()
	return applied, g.walErr
}

// Crash kills the gateway abruptly, simulating a process crash for tests
// and chaos scenarios: staged commands fail, attached subscribers' streams
// close with ReasonCrashed, and the WAL is abandoned mid-stream without a
// clean flush — whatever the file holds is what Recover gets, exactly as if
// the process had died. No queries are cancelled and no sessions drain; the
// final stats and export stay readable for post-mortem assertions.
func (g *Gateway) Crash() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.k.ClosedLocked() {
		return ErrClosed
	}
	// The flight recorder is caller-owned and survives the crash; the
	// crash itself is the last span this incarnation records.
	g.cfg.Tracer.Record(tracing.Span{Kind: tracing.KindCrash, Shard: g.traceShard(), AtMS: g.nowMS()})
	if g.wal != nil {
		g.wal.f.Close() // no flush: simulate losing the process mid-stream
		g.wal = nil
	}
	g.k.CrashLocked()
	return nil
}

// Close drains the gateway: staged commands are rejected, every
// subscription ends with ReasonShutdown and every admitted query's
// reference count drops to zero and is cancelled. The WAL is flushed and
// closed first — a clean shutdown is not a crash, and the drain is not
// logged, so a later Recover still finds the sessions. Close is idempotent;
// Stats, Status and Export remain readable.
func (g *Gateway) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.k.ClosedLocked() {
		return nil
	}
	g.wal.close()
	g.wal = nil
	g.k.CloseLocked()
	return nil
}

// Now returns the simulation's current virtual time.
func (g *Gateway) Now() sim.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now()
}

// Stats returns a counter snapshot.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.statsLocked()
}

// ServeStats implements Backend.
func (g *Gateway) ServeStats() (Stats, sim.Time, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.statsLocked(), g.now(), nil
}

// metricsSnapshot is one scrape's view under one lock: whether the gateway
// serves, the kernel's session counters, the serving counters and the
// updates parked in resume rings.
func (g *Gateway) metricsSnapshot() (bool, tier.Stats, Stats, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.k.ClosedLocked(), g.k.StatsLocked(), g.statsLocked(), g.k.OccupancyLocked().RingUpdates
}

func (g *Gateway) statsLocked() Stats {
	st := g.stats
	g.k.StatsLocked().Overlay(&st)
	st.SharedQueries = len(g.byKey)
	return st
}

// Alive reports whether the gateway is serving: false after Close or Crash,
// true again only on a gateway rebuilt by Recover. It is the readiness
// signal behind the admin plane's /readyz.
func (g *Gateway) Alive() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.k.ClosedLocked()
}

// Spans returns the simulation's query-lifecycle recorder
// (network.Simulation.Spans). It is internally locked, so it may be
// snapshotted from any goroutine — and it remains readable after Close or
// Crash for post-mortem TTFR accounting.
func (g *Gateway) Spans() *tracing.Recorder { return g.sim.Spans() }

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
	// Queries counts the queries with a retained lifecycle (admit span).
	Queries int `json:"queries"`
	// BrownoutLevel names the brownout ladder's current rung ("normal",
	// "no-replay", "batching", "shed"); Staged is the group-commit
	// mailbox's current depth.
	BrownoutLevel string `json:"brownout_level"`
	Staged        int    `json:"staged"`
}

// Status returns the /statusz snapshot; Alive is false after Close or
// Crash.
func (g *Gateway) Status() Status {
	g.mu.Lock()
	status, spans := g.statusLocked(), g.sim.Spans()
	g.mu.Unlock()
	// The recorder locks itself; pairing it need not hold up the tier.
	status.Queries = len(tracing.Lifecycles(spans.Snapshot()))
	return status
}

func (g *Gateway) statusLocked() Status {
	st, occ := g.statsLocked(), g.k.OccupancyLocked()
	return Status{
		Alive:               !g.k.ClosedLocked(),
		NowMS:               g.nowMS(),
		Sessions:            st.ActiveSessions,
		Attached:            occ.Attached,
		ActiveSubscriptions: st.ActiveSubscriptions,
		SharedQueries:       st.SharedQueries,
		DedupRatio:          st.DedupRatio(),
		WALSizeBytes:        st.WALSizeBytes,
		WALAppends:          st.WALAppends,
		WALCompactions:      st.WALCompactions,
		ResumeRings:         occ.Rings,
		ResumeRingUpdates:   occ.RingUpdates,
		BrownoutLevel:       g.brown.Level().String(),
		Staged:              g.k.StagedLocked(),
	}
}

// Export builds the run's JSON envelope: the simulation's export (manifest,
// final metrics, optimizer state, span summary, series) plus the gateway
// counters, the causal traces and the chaos label. Everything in it is a
// pure function of the committed command sequence and the seed — no wall
// clock — so exports are byte-identical across client schedulings.
func (g *Gateway) Export() network.RunExport {
	g.mu.Lock()
	defer g.mu.Unlock()
	exp := g.sim.Export("gateway", "", g.cfg.ChaosLabel)
	exp.Gateway = g.statsLocked().Metrics()
	if g.cfg.Tracer != nil {
		exp.Traces = tracing.Collect(g.cfg.Tracer)
	}
	return exp
}

// FinalMetrics is the run export's radio accounting at the current virtual
// instant, without the rest of the export.
func (g *Gateway) FinalMetrics() network.FinalMetrics {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sim.FinalMetrics()
}

// ---------------------------------------------------------------------------
// Policy: the kernel's hooks

// mintTokenLocked is the kernel's token hook. The token authenticates
// re-attachment after a disconnect or gateway crash; it derives from the
// seed, the name and the registration ordinal via FNV-1a — deterministic,
// so recovery determinism tests can reproduce it, and unique per
// registration (it guards against accidental session takeover in the
// simulation harness, not against an adversary).
func (g *Gateway) mintTokenLocked(name string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", g.cfg.Sim.Seed, name, g.k.StatsLocked().Sessions)
	token := fmt.Sprintf("%016x", h.Sum64())
	g.buckets[name] = g.cfg.Burst
	// Flush immediately: the client is about to hold this token, so it must
	// survive a crash that hits before the next Advance.
	g.walAppend(walRecord{Op: walOpRegister, Sess: name, Token: token})
	g.walFlush()
	return token
}

// admitStageLocked is stage-time admission control on the group-commit
// mailbox: subscribes are rejected while the staged queue sits at its
// MaxStaged bound or the brownout ladder sits at its shed rung.
func (g *Gateway) admitStageLocked() error {
	if g.brown.Level() >= resilience.LevelShed {
		g.stats.ShedBrownout++
		return &resilience.OverloadError{RetryAfter: g.retryAfter(), Reason: "brownout"}
	}
	if g.cfg.MaxStaged > 0 && g.k.StagedLocked() >= g.cfg.MaxStaged {
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
	if g.cfg.MaxStaged > 0 {
		base += base * time.Duration(g.k.StagedLocked()/g.cfg.MaxStaged)
	}
	return base
}

// observePressure feeds the brownout ladder one mailbox-pressure reading
// per Advance (pressured = staged depth at half the MaxStaged bound or
// beyond) and publishes the rung. Without a MaxStaged bound there is no
// pressure signal and the ladder stays at LevelNormal.
func (g *Gateway) observePressure() {
	pressured := g.cfg.MaxStaged > 0 && g.k.StagedLocked()*2 >= g.cfg.MaxStaged
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

// applySubscribeLocked is the kernel's admission hook, reached once the
// command passed its mailbox deadline and the session its quota: the
// gateway-wide cap, the session's token bucket, then dedup-or-admit. An
// admitted subscribe is logged here, in commit order.
func (g *Gateway) applySubscribeLocked(a tier.Admission) (*tier.Group, error) {
	n, key, err := Canonicalize(a.Query)
	if err != nil {
		return nil, err
	}
	name := a.Session.Name()
	if g.cfg.MaxLiveSubs > 0 && g.k.StatsLocked().ActiveSubscriptions >= g.cfg.MaxLiveSubs {
		g.stats.ShedSubs++
		return nil, &resilience.OverloadError{RetryAfter: g.retryAfter(), Reason: "subs"}
	}
	if tokens := g.buckets[name]; tokens < 1 {
		g.stats.RateLimited++
		return nil, fmt.Errorf("gateway: session %q rate-limited (%.2g tokens; %g/simulated-second, burst %g)",
			name, tokens, g.cfg.Rate, g.cfg.Burst)
	}
	sh, err := g.groupLocked(n, key)
	if err != nil {
		return nil, err
	}
	g.buckets[name]--
	g.walAppend(walRecord{Op: walOpSubscribe, Sess: name, Sub: a.ID, Query: key, Trace: a.Trace})
	if g.cfg.Tracer != nil {
		kind := tracing.KindAdmit
		if !sh.Empty() {
			kind = tracing.KindDedupHit
		}
		g.cfg.Tracer.Record(tracing.Span{Trace: a.Trace, Parent: a.Span, Kind: kind, Shard: g.traceShard(), AtMS: g.nowMS(), Note: key})
	}
	return sh, nil
}

// groupLocked is the dedup-or-admit step, shared with WAL replay: the live
// query the canonical key maps to, or a new one posted into the network.
func (g *Gateway) groupLocked(q query.Query, key string) (*tier.Group, error) {
	if sh := g.byKey[key]; sh != nil {
		return sh, nil
	}
	qid, err := g.sim.Post(q)
	if err != nil {
		g.stats.AdmitErrors++
		return nil, fmt.Errorf("gateway: admit %q: %w", key, err)
	}
	sh := &tier.Group{Key: key, QID: qid}
	g.byKey[key] = sh
	g.byQID[qid] = sh
	g.stats.Admitted++
	return sh, nil
}

// releaseGroupLocked cancels an in-network query whose last subscriber left.
func (g *Gateway) releaseGroupLocked(grp *tier.Group) {
	delete(g.byKey, grp.Key)
	delete(g.byQID, grp.QID)
	if err := g.sim.Cancel(grp.QID); err == nil {
		g.stats.Cancelled++
	}
}

// walUnsubscribe logs that sub left, by a committed unsubscribe or by
// eviction.
func (g *Gateway) walUnsubscribe(sub *Subscription) {
	g.walAppend(walRecord{Op: walOpUnsubscribe, Sess: sub.Session().Name(), Sub: sub.ID()})
}

// sweepEvictedLocked logs the subscribers Deliver evicted during the last
// quantum and cancels the queries they left without a subscriber. Runs
// first in every Advance, before the staged commands commit: the eviction
// itself happened mid-quantum, but what the WAL and the network see of it
// happens here, at a commit boundary, so crash-recovery replay stays exact.
func (g *Gateway) sweepEvictedLocked() {
	for _, sub := range g.evicted {
		g.walUnsubscribe(sub)
		if grp := sub.Group(); grp.Empty() && g.byQID[grp.QID] != nil {
			g.releaseGroupLocked(grp)
		}
	}
	g.evicted = g.evicted[:0]
}

// refill tops up every session's token bucket for d of elapsed virtual
// time. A full bucket stays full, so only those below Burst are written.
func (g *Gateway) refill(d time.Duration) {
	add := g.cfg.Rate * d.Seconds()
	for name, tokens := range g.buckets {
		if tokens < g.cfg.Burst {
			g.buckets[name] = min(tokens+add, g.cfg.Burst)
		}
	}
}

// deliver runs inside sim.Run, with the lock held, as the simulation hands
// over one user result epoch.
func (g *Gateway) deliver(u Update) {
	sh := g.byQID[u.QueryID]
	if sh == nil {
		return
	}
	g.stats.Epochs++
	// Provenance stamping is plain value writes — no allocation on the
	// fan-out hot path, whether tracing is mounted or not.
	u.Prov.Rung = uint8(g.stats.BrownoutLevel)
	if g.cfg.TraceShard > 0 {
		u.Prov.Shards = 1 << uint(g.cfg.TraceShard-1)
	}
	g.evicted = append(g.evicted, sh.Deliver(&u)...)
}

// traceShard is the shard ordinal stamped on this gateway's spans
// (tracing.NoShard unless the serve CLI mounted it as a federation
// member).
func (g *Gateway) traceShard() int32 {
	if g.cfg.TraceShard > 0 {
		return int32(g.cfg.TraceShard - 1)
	}
	return tracing.NoShard
}

// recordSpan is the kernel's span hook. During WAL replay nothing is
// recorded — the original run already did, into the caller-owned recorder
// that survived the crash — but the span's id is still derived, so later
// hops parent on it.
func (g *Gateway) recordSpan(s tracing.Span) uint64 {
	s.Shard = g.traceShard()
	if g.replaying {
		return tracing.SpanID(s.Trace, g.cfg.Tracer.Tier(), s.Kind, int(s.Shard), s.AtMS)
	}
	return g.cfg.Tracer.Record(s)
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
		Rung:  uint8(g.stats.BrownoutLevel),
	})
}
