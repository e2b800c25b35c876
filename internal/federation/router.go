// Package federation breaks the one-simulation/one-gateway ceiling: K
// region-partitioned simulations each run behind their own gateway.Gateway
// shard, fronted by a Router that plans cross-shard queries by splitting
// their nodeid region predicate across the shards it intersects, merges and
// re-aggregates the partial results (SUM/COUNT/MIN/MAX/AVG recombination)
// with one canonical upstream subscription per shard per query, and fails a
// dead shard's state over after recovery using the gateway's WAL +
// session-token resume machinery. Client sessions live in the router alone:
// a shard sees one session, the router's own upstream one. The Router
// implements gateway.Backend, so the existing TCP server, binary wire codec
// and client front it unchanged.
package federation

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// Defaults for Config zero values.
const (
	DefaultShards = 1
	DefaultSide   = 4
	// maxPending bounds buffered epochs per query tree while a watermark
	// stalls (dead or partitioned shard). Overflow force-releases the
	// oldest epochs without the missing shard's partials.
	maxPending = 256
	// defaultCatchUpStep bounds one recovery replay advance when the router
	// has never advanced (so no quantum is known yet).
	defaultCatchUpStep = 2048 * time.Millisecond
)

// Config parametrizes a Router and its shard fleet.
type Config struct {
	// Shards is the number of region partitions K (DefaultShards if <= 0).
	Shards int
	// Side is each shard's PaperGrid side; a shard simulates Side*Side
	// nodes of which Side*Side-1 are sensors (DefaultSide if <= 0).
	Side int
	// Seed drives shard i's simulation with Seed+i, so shards model
	// distinct regions of one field.
	Seed int64
	// Scheme selects the optimization tiers (network.TTMQO if zero).
	Scheme network.Scheme
	// Alpha is the tier-1 termination parameter (scheme default if 0).
	Alpha float64
	// Buffer, MaxSessions, SessionQuota, Rate, Burst mirror the gateway
	// limits. Buffer bounds both the per-shard upstream streams and the
	// downstream subscriber streams; MaxSessions and SessionQuota are
	// enforced at the router (a shard sees only the router's own session).
	Buffer       int
	MaxSessions  int
	SessionQuota int
	Rate         float64
	Burst        float64
	// WALDir, when set, gives every shard a write-ahead log
	// (<WALDir>/shard-<i>.wal) so a crashed shard can be rebuilt with
	// RecoverShard. Empty disables crash recovery.
	WALDir string
	// Failures injects node outages into every shard's simulation (zero
	// value disables them).
	Failures network.FailureConfig
	// OnShardSim, when set, runs against each shard's freshly built
	// simulation (chaos fault injection); re-applied on recovery replay.
	OnShardSim func(shard int, s *network.Simulation)
	// MailboxDeadline is the default staging-sojourn budget for downstream
	// subscribes: a command that waits longer than this in the router's
	// group-commit mailbox is shed with resilience.ErrOverloaded instead of
	// being applied late. Zero disables the default; a per-command budget
	// (SubscribeRequest.Budget / wire deadline_ms) always overrides.
	MailboxDeadline time.Duration
	// MaxStaged and MaxLiveSubs forward the gateway admission-control
	// bounds to every shard (zero disables, as on the gateway). Shard-side
	// brownout pressure also feeds the router's BrownoutLevel.
	MaxStaged   int
	MaxLiveSubs int
	// Breaker parametrizes the per-shard circuit breaker guarding the
	// watermark against stuck-but-not-crashed shards (zero value uses the
	// resilience defaults).
	Breaker resilience.BreakerConfig
	// Tracer, when set, records the router's causal spans (subscribe,
	// shard fan-out, merge/degraded releases, breaker transitions,
	// reattaches) into a caller-owned flight recorder; nil disables
	// tracing at this tier.
	Tracer *tracing.Recorder
	// ShardTracer, when set, supplies shard i's gateway flight recorder.
	// Caller-owned recorders survive shard crashes, so a recovered shard
	// keeps appending to the same ring its predecessor used.
	ShardTracer func(shard int) *tracing.Recorder
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Side <= 0 {
		c.Side = DefaultSide
	}
	if c.Scheme == 0 {
		c.Scheme = network.TTMQO
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = gateway.DefaultMaxSessions
	}
	if c.SessionQuota <= 0 {
		c.SessionQuota = gateway.DefaultSessionQuota
	}
	if c.Buffer <= 0 {
		c.Buffer = gateway.DefaultBuffer
	}
	return c
}

// Stats is the router's own counter snapshot (shard gateway counters are
// separate; see ShardStats and ServeStats).
type Stats struct {
	tier.Stats              // session and delivery lifecycle (the kernel's)
	Shards            int   `json:"shards"`
	AliveShards       int   `json:"alive_shards"`
	Trees             int   `json:"trees"`           // live canonical cross-shard queries
	UpstreamSubs      int   `json:"upstream_subs"`   // live upstream subscriptions across shards
	PartialUpdates    int64 `json:"partial_updates"` // upstream updates drained from shards
	MergedEpochs      int64 `json:"merged_epochs"`   // epochs released by the watermark
	ForcedReleases    int64 `json:"forced_releases"` // epochs released early by maxPending overflow
	LateDropped       int64 `json:"late_dropped"`    // partials that arrived for an already-released epoch
	ShardCrashes      int64 `json:"shard_crashes"`
	ShardRecoveries   int64 `json:"shard_recoveries"`
	Partitions        int64 `json:"partitions"`
	Heals             int64 `json:"heals"`
	UpstreamResumes   int64 `json:"upstream_resumes"`   // upstream streams resumed after recover/heal
	DegradedEpochs    int64 `json:"degraded_epochs"`    // epochs released without full shard coverage
	ShardStalls       int64 `json:"shard_stalls"`       // StallShard(i, true) calls (chaos stuck-shard injections)
	StalledShards     int   `json:"stalled_shards"`     // shards currently wedged by StallShard
	BreakerTrips      int64 `json:"breaker_trips"`      // per-shard breakers tripped open (summed)
	BreakerProbes     int64 `json:"breaker_probes"`     // half-open probes issued (summed)
	BreakerRecoveries int64 `json:"breaker_recoveries"` // breakers closed again after a probe succeeded (summed)
}

// upstream is the router's one canonical subscription to a shard for a
// query tree: the stream of one plan slice, held by that tree alone.
type upstream struct {
	tier.Stream
	sh    *shard
	tr    *tree
	slice int // index into tr.p.slices
}

// carrier holds the router's streams on its session on a shard.
type carrier struct{ *gateway.Session }

func (c carrier) UnsubscribeAsync(id gateway.SubID) error {
	_, err := c.Session.UnsubscribeAsync(id)
	return err
}

func (c carrier) Resume(id gateway.SubID, after uint64) (tier.Source, error) {
	return c.Session.Resume(id, after)
}

// shard is one region partition: a simulation behind its own gateway,
// plus the router's upstream session on it.
type shard struct {
	idx  int
	cfg  gateway.Config
	gw   *gateway.Gateway
	name string // the router's upstream session name
	// token survives crashes: gateway.Recover replays the WAL, so the
	// original session token re-attaches to the rebuilt gateway.
	token string
	sess  *gateway.Session
	ups   *tier.Sorted[gateway.SubID, *upstream]
	// alive: the gateway process is up. reachable: the router's upstream
	// session is attached (false during a simulated network partition —
	// the shard keeps advancing, its updates park in resume rings).
	alive     bool
	reachable bool
	vnow      sim.Time // the shard's virtual clock
	// frozen is the watermark contribution while !alive || !reachable:
	// the last virtual instant whose updates the router has seen.
	frozen sim.Time
	// stalled simulates a wedged-but-running gateway (StallShard): the
	// shard stops answering Advance without crashing. brk observes every
	// round's outcome; once it trips open the shard's frozen clock stops
	// gating the watermark and spanned trees release degraded epochs
	// instead of stalling.
	stalled bool
	brk     *resilience.Breaker
	// One round's scratch, valid from the step loop of an Advance to its end:
	// whether the shard was stepped, the breaker state before the round, and
	// the step's outcome.
	stepped  bool
	preState resilience.BreakerState
	stepErr  error
}

// watermark is the virtual instant this shard's partials are complete
// strictly below, from the router's point of view. Completeness is
// exclusive: an epoch scheduled exactly at the clock's current value can
// still surface in the next quantum, so only epochs with At < watermark
// may release.
func (sh *shard) watermark() sim.Time {
	if sh.alive && sh.reachable {
		return sh.vnow
	}
	return sh.frozen
}

// tree is one canonical downstream query: its plan, its per-shard
// upstream subscriptions and (the embedded group) its downstream
// subscribers.
type tree struct {
	tier.Group
	p   *plan
	ups []*upstream // parallel to p.slices
	// pending buffers partially merged epochs, ascending by instant, until
	// the watermark (min over planned shards) passes them.
	pending  []*tier.Epoch
	released sim.Time // newest released epoch instant
	// trace/spanID are the materializing subscriber's causal context: a
	// shared tree's fan-out and release spans belong to the trace that
	// first established it (later subscribers get dedup-hit spans on
	// their own traces).
	trace  uint64
	spanID uint64
}

// Session, Sub and Ticket are the kernel's: a downstream client session, one
// subscription to a merged cross-shard stream, and a staged command's
// handle.
type (
	Session = tier.Session
	Sub     = tier.Sub
	Ticket  = tier.Ticket
)

// Router fronts K gateway shards behind the gateway.Backend surface:
// cross-shard queries are planned into per-shard slices with one canonical
// upstream subscription each, and partial results merge under a per-tree
// watermark so downstream updates stay in virtual-time order even when a
// shard dies or partitions.
type Router struct {
	// k is the downstream surface: sessions, staged commands, tickets and
	// per-subscriber streams, all guarded by mu.
	k   *tier.Kernel
	cfg Config
	spn int // sensors per shard

	mu     sync.Mutex
	shards []*shard
	// brownout is the hottest alive shard's ladder rung, for readers that
	// must not wait on a round; it is refreshed whenever a shard steps,
	// dies or comes back.
	brownout atomic.Int32
	trees    *tier.Sorted[string, *tree]
	staged   []*upstream // upstreams whose subscribes the shards commit this round
	epochs   tier.EpochPool
	now      sim.Time      // the router's virtual clock (max of shard clocks)
	quantum  time.Duration // the last positive Advance step: the catch-up replay's
	stats    Stats
	// onMerge observes each Advance's merge+release wall-clock latency
	// (telemetry hook; see SetMergeObserver).
	onMerge func(time.Duration)
}

// New builds the shard fleet and the router's upstream session on each
// shard.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, fmt.Errorf("federation: shard topology: %w", err)
	}
	r := &Router{
		cfg:     cfg,
		spn:     topo.Size() - 1,
		trees:   tier.NewSorted[string, *tree](),
		quantum: defaultCatchUpStep,
	}
	kcfg := tier.Config{
		Name:            "federation",
		Mu:              &r.mu,
		Buffer:          cfg.Buffer,
		MaxSessions:     cfg.MaxSessions,
		SessionQuota:    cfg.SessionQuota,
		MailboxDeadline: cfg.MailboxDeadline,
		Now:             func() sim.Time { return r.now },
		ApplySubscribe:  r.applySubscribeLocked,
		ReleaseGroup:    func(g *tier.Group) { r.teardownTreeLocked(r.trees.Get(g.Key)) },
	}
	if cfg.Tracer != nil {
		kcfg.Span = cfg.Tracer.Record
	}
	r.k = tier.New(kcfg)
	for i := 0; i < cfg.Shards; i++ {
		sh, err := r.buildShard(i)
		if err != nil {
			for _, prev := range r.shards {
				_ = prev.gw.Close()
			}
			return nil, err
		}
		r.shards = append(r.shards, sh)
	}
	return r, nil
}

// Register creates a downstream session under a unique name; Attach
// re-claims a detached one by name and token. Sessions live in the router
// alone, so no shard's health bears on either.
func (r *Router) Register(name string) (*Session, error) { return r.k.Register(name) }
func (r *Router) Attach(name, token string) (*Session, []gateway.ResumeInfo, error) {
	return r.k.Attach(name, token)
}

func (r *Router) buildShard(i int) (*shard, error) {
	topo, err := topology.PaperGrid(r.cfg.Side)
	if err != nil {
		return nil, err
	}
	gcfg := gateway.Config{
		Sim: network.Config{
			Topo:     topo,
			Scheme:   r.cfg.Scheme,
			Seed:     r.cfg.Seed + int64(i),
			Alpha:    r.cfg.Alpha,
			Failures: r.cfg.Failures,
		},
		Buffer: r.cfg.Buffer,
		// The shard only ever sees the router's one upstream session, which
		// carries every downstream session's slices.
		MaxSessions:  1,
		SessionQuota: r.cfg.MaxSessions * r.cfg.SessionQuota,
		Rate:         r.cfg.Rate,
		Burst:        r.cfg.Burst,
		MaxStaged:    r.cfg.MaxStaged,
		MaxLiveSubs:  r.cfg.MaxLiveSubs,
		// The router's upstream session detaches during partitions of
		// unbounded (virtual) length; it must never be idle-reaped.
		IdleTimeout: -1,
	}
	if r.cfg.WALDir != "" {
		gcfg.WALPath = filepath.Join(r.cfg.WALDir, fmt.Sprintf("shard-%d.wal", i))
	}
	if r.cfg.ShardTracer != nil {
		gcfg.Tracer = r.cfg.ShardTracer(i)
		gcfg.TraceShard = i + 1
	}
	if hook := r.cfg.OnShardSim; hook != nil {
		idx := i
		gcfg.OnSim = func(s *network.Simulation) { hook(idx, s) }
	}
	gw, err := gateway.New(gcfg)
	if err != nil {
		return nil, fmt.Errorf("federation: shard %d: %w", i, err)
	}
	name := fmt.Sprintf("router@shard-%d", i)
	sess, err := gw.Register(name)
	if err != nil {
		_ = gw.Close()
		return nil, fmt.Errorf("federation: shard %d upstream session: %w", i, err)
	}
	return &shard{
		idx:       i,
		cfg:       gcfg,
		gw:        gw,
		name:      name,
		token:     sess.Token(),
		sess:      sess,
		ups:       tier.NewSorted[gateway.SubID, *upstream](),
		alive:     true,
		reachable: true,
		brk:       resilience.NewBreaker(r.cfg.Breaker),
	}, nil
}

// Shards returns the configured shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Now returns the router's virtual clock.
func (r *Router) Now() sim.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

// nowMS is the router's virtual clock in milliseconds (callers hold r.mu).
func (r *Router) nowMS() int64 { return time.Duration(r.now).Milliseconds() }

// traceBreaker records a tier-level breaker transition span when a
// shard's circuit breaker changed state across an observation.
func (r *Router) traceBreaker(sh *shard, pre resilience.BreakerState) {
	if r.cfg.Tracer == nil {
		return
	}
	post := sh.brk.State()
	if post == pre {
		return
	}
	var kind string
	switch {
	case post == resilience.BreakerOpen && pre != resilience.BreakerOpen:
		kind = tracing.KindBreakerOpen
	case post == resilience.BreakerClosed && pre != resilience.BreakerClosed:
		kind = tracing.KindBreakerClose
	default:
		return // closed→half-open probes are not span-worthy
	}
	r.cfg.Tracer.Record(tracing.Span{
		Kind:  kind,
		Shard: int32(sh.idx),
		AtMS:  r.nowMS(),
	})
}

// SetMergeObserver installs a callback observing each Advance's
// merge-and-release wall-clock latency (telemetry).
func (r *Router) SetMergeObserver(fn func(time.Duration)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onMerge = fn
}

// FedStats snapshots the router's counters.
func (r *Router) FedStats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statsLocked()
}

func (r *Router) statsLocked() Stats {
	st := r.stats
	st.Stats = r.k.StatsLocked()
	st.Shards = len(r.shards)
	for _, sh := range r.shards {
		if sh.alive {
			st.AliveShards++
		}
		if sh.stalled {
			st.StalledShards++
		}
		st.UpstreamSubs += sh.ups.Len()
		st.BreakerTrips += sh.brk.Trips
		st.BreakerProbes += sh.brk.Probes
		st.BreakerRecoveries += sh.brk.Recoveries
	}
	st.Trees = r.trees.Len()
	return st
}

// ShardStats snapshots one shard's gateway counters (final counters for a
// dead shard).
func (r *Router) ShardStats(i int) (gateway.Stats, error) {
	r.mu.Lock()
	if i < 0 || i >= len(r.shards) {
		r.mu.Unlock()
		return gateway.Stats{}, fmt.Errorf("federation: no shard %d", i)
	}
	gw := r.shards[i].gw
	r.mu.Unlock()
	return gw.Stats(), nil
}

// Alive reports whether the router is serving (false after Close).
func (r *Router) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.k.ClosedLocked()
}

// ShardState is one shard as the router sees it.
type ShardState struct {
	Alive     bool                    // the shard's gateway is up
	Breaker   resilience.BreakerState // the shard's circuit breaker
	Now       sim.Time                // virtual clock, frozen at crash time for a dead shard
	Upstreams int                     // canonical upstream subscriptions the router holds on it
}

// ShardStates reads every shard's state under one lock, so the values are
// of one instant.
func (r *Router) ShardStates() []ShardState {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ShardState, len(r.shards))
	for i, sh := range r.shards {
		out[i] = ShardState{Alive: sh.alive, Breaker: sh.brk.State(), Now: sh.vnow, Upstreams: sh.ups.Len()}
	}
	return out
}

// ServeStats implements gateway.Backend: shard counters summed, with the
// serving-level fields overlaid from the router's own view.
func (r *Router) ServeStats() (gateway.Stats, sim.Time, error) {
	r.mu.Lock()
	gws := make([]*gateway.Gateway, len(r.shards))
	for i, sh := range r.shards {
		gws[i] = sh.gw
	}
	fs := r.statsLocked()
	now := r.now
	r.mu.Unlock()

	var agg gateway.Stats
	for _, gw := range gws {
		addGatewayStats(&agg, gw.Stats())
	}
	fs.Overlay(&agg)
	agg.SharedQueries = fs.Trees
	agg.Recoveries += fs.ShardRecoveries
	agg.BrownoutLevel = int(r.BrownoutLevel())
	return agg, now, nil
}

// addGatewayStats folds one shard's backend-side counters into the sum:
// admission, simulation, WAL and overload ones. Serving-level fields are
// overlaid with the router's own counters in ServeStats.
func addGatewayStats(dst *gateway.Stats, s gateway.Stats) {
	dst.RateLimited += s.RateLimited
	dst.AdmitErrors += s.AdmitErrors
	dst.Admitted += s.Admitted
	dst.Cancelled += s.Cancelled
	dst.Epochs += s.Epochs
	dst.Dropped += s.Dropped
	dst.Evicted += s.Evicted
	dst.RingDropped += s.RingDropped
	dst.IdleReaped += s.IdleReaped
	dst.Recoveries += s.Recoveries
	dst.WALAppends += s.WALAppends
	dst.WALSizeBytes += s.WALSizeBytes
	dst.WALCompactions += s.WALCompactions
	dst.ShedQueue += s.ShedQueue
	dst.ShedDeadline += s.ShedDeadline
	dst.ShedSubs += s.ShedSubs
	dst.ShedBrownout += s.ShedBrownout
	dst.BrownoutEscalations += s.BrownoutEscalations
	dst.BrownoutRecoveries += s.BrownoutRecoveries
}

// BrownoutLevel implements gateway.Backend over the fleet: the
// router's pressure is its hottest alive shard's ladder rung. Readable
// from any goroutine without waiting on a round, like the gateway's.
func (r *Router) BrownoutLevel() resilience.Level { return resilience.Level(r.brownout.Load()) }

func (r *Router) refreshBrownoutLocked() {
	lvl := resilience.LevelNormal
	for _, sh := range r.shards {
		if sh.alive {
			lvl = max(lvl, sh.gw.BrownoutLevel())
		}
	}
	r.brownout.Store(int32(lvl))
}

// ---------------------------------------------------------------------------
// Advance: group commit, shard steps, drain, merge, release

// Advance commits staged downstream commands, steps every alive shard by d
// in place and in shard order, drains their partial results and releases
// fully merged epochs up to the watermark. Shards are independent
// simulations, but at the sizes measured a goroutine per shard costs more
// than the overlap it buys (EXPERIMENTS.md, "A round costs its
// simulations"), so a round executes no go statement. Implements
// gateway.Backend.
func (r *Router) Advance(d time.Duration) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer r.refreshBrownoutLocked()
	if r.k.ClosedLocked() {
		return 0, gateway.ErrClosed
	}
	if d > 0 {
		r.quantum = d
	}

	// Subscribe acks are deferred until upstream resolution.
	applied, acks := r.k.CommitLocked()
	r.k.ReapLocked(gateway.DefaultIdleTimeout)

	// Step alive shards: each runs its own simulation for one quantum.
	// Stalled shards (chaos: wedged but not crashed) and shards behind an
	// open breaker are held out of the round; their breakers observe the
	// timeout — a closed breaker counts its failure streak, an open one
	// ticks its cooldown toward a half-open probe.
	for _, sh := range r.shards {
		sh.stepped = false
		if !sh.alive {
			continue
		}
		sh.preState = sh.brk.State()
		if sh.stalled || sh.preState == resilience.BreakerOpen {
			sh.brk.Observe(false)
			r.traceBreaker(sh, sh.preState)
			continue
		}
		sh.stepped = true
		_, sh.stepErr = sh.gw.Step(d)
	}
	var firstErr error
	for _, sh := range r.shards {
		if !sh.stepped {
			continue
		}
		if err := sh.stepErr; err != nil {
			// The shard died under us (e.g. chaos crash): freeze it.
			r.freezeLocked(sh)
			if firstErr == nil {
				firstErr = fmt.Errorf("federation: shard %d advance: %w", sh.idx, err)
			}
			continue
		}
		sh.vnow += sim.Time(d)
		if sh.vnow > r.now {
			r.now = sh.vnow
		}
		sh.brk.Observe(true)
		r.traceBreaker(sh, sh.preState)
		if sh.preState == resilience.BreakerHalfOpen {
			// The probe succeeded: the breaker closed, so replay the quanta
			// the shard sat out while open. Coverage returns to 1.0 once its
			// watermark passes the other shards' again.
			r.catchUpLocked(sh)
		}
	}

	// The shards have committed the upstream subscribes staged at commit.
	for _, up := range r.staged {
		src, err := up.Resolve()
		switch {
		case err != nil && up.tr.Broken == nil:
			up.tr.Broken = fmt.Errorf("federation: shard %d admission: %w", up.sh.idx, err)
		case src != nil:
			up.sh.ups.Set(src.ID(), up)
			if up.slice == 0 {
				up.tr.QID = src.QueryID()
			}
		}
	}
	r.staged = nil

	var t0 time.Time
	if r.onMerge != nil {
		t0 = time.Now()
	}
	for _, sh := range r.shards {
		if sh.alive && sh.reachable {
			r.drainShardLocked(sh)
		}
	}
	r.releaseLocked()
	if r.onMerge != nil {
		r.onMerge(time.Since(t0))
	}

	r.k.AckLocked(acks)
	return applied, firstErr
}

// applySubscribeLocked is the kernel's admission hook: join the query's
// live tree, or plan a new one and stage its canonical upstream on every
// shard the region touches.
func (r *Router) applySubscribeLocked(a tier.Admission) (*tier.Group, error) {
	q, key, err := gateway.Canonicalize(a.Query)
	if err != nil {
		return nil, err
	}
	if tr := r.trees.Get(key); tr != nil {
		if r.cfg.Tracer != nil {
			r.cfg.Tracer.Record(tracing.Span{
				Trace:  a.Trace,
				Parent: a.Span,
				Kind:   tracing.KindDedupHit,
				Shard:  tracing.NoShard,
				AtMS:   r.nowMS(),
				Note:   key,
			})
		}
		return &tr.Group, nil
	}
	p, err := planQuery(q, len(r.shards), r.spn)
	if err != nil {
		return nil, err
	}
	// Every planned shard must be alive and reachable to establish
	// the canonical upstreams.
	for _, sl := range p.slices {
		sh := r.shards[sl.shard]
		if !sh.alive || !sh.reachable {
			return nil, fmt.Errorf("federation: shard %d (region sensors %d..%d) is unavailable",
				sl.shard, sl.shard*r.spn+1, (sl.shard+1)*r.spn)
		}
	}
	tr := &tree{Group: tier.Group{Key: key}, p: p, trace: a.Trace, spanID: a.Span}
	for i, sl := range p.slices {
		sh := r.shards[sl.shard]
		up := &upstream{sh: sh, tr: tr, slice: i}
		// Fan-out span per slice; the shard gateway's subscribe span
		// parents on it, stitching router→shard in one trace.
		req := gateway.SubscribeRequest{Query: sl.q, Budget: a.Budget}
		if r.cfg.Tracer != nil {
			fanID := r.cfg.Tracer.Record(tracing.Span{
				Trace:  a.Trace,
				Parent: a.Span,
				Kind:   tracing.KindShardFanout,
				Shard:  int32(sl.shard),
				AtMS:   r.nowMS(),
				Note:   key,
			})
			req.Trace = tracing.Context{Trace: a.Trace, Span: fanID}
		}
		tk, err := sh.sess.SubscribeAsync(req)
		if err != nil {
			for _, staged := range tr.ups {
				staged.Release() // unsubscribed when it resolves
			}
			return nil, fmt.Errorf("federation: shard %d subscribe: %w", sl.shard, err)
		}
		up.Stage(carrier{sh.sess}, func() (tier.Source, error) { return tk.Wait() })
		tr.ups = append(tr.ups, up)
		r.staged = append(r.staged, up)
	}
	r.trees.Set(key, tr)
	return &tr.Group, nil
}

// teardownTreeLocked releases the tree's upstreams. The shard stops carrying
// each one: at once when it is live, when it resolves if it is still staged,
// and at the re-attach when the shard is down or cut off.
func (r *Router) teardownTreeLocked(tr *tree) {
	for _, up := range tr.ups {
		up.Release()
		up.sh.ups.Delete(up.ID())
	}
	r.trees.Delete(tr.Key)
}

// drainShardLocked folds every upstream stream of one shard, in SubID order,
// into the pending epochs, under one hold of the shard's lock. A stream the
// shard closed under us (eviction — should not happen at router drain
// cadence, but a chaos scenario can force it) stalls its tree until teardown.
func (r *Router) drainShardLocked(sh *shard) {
	sh.sess.Read(func() {
		for _, up := range sh.ups.Values() {
			up.Drain(func(u gateway.Update) {
				r.stats.PartialUpdates++
				tr := up.tr
				if tr.released > 0 && u.At <= tr.released {
					r.stats.LateDropped++
					return
				}
				e := r.epochs.At(&tr.pending, u.At)
				if len(u.Rows) > 0 {
					e.Rows = translateRows(e.Rows, u.Rows, sh.idx, r.spn)
				}
				e.Add(up.slice, &u)
			})
		}
	})
}

// releaseLocked pushes every fully merged epoch (At <= the tree's
// watermark) downstream in virtual-time order. maxPending overflow
// force-releases the oldest epochs without the stalled shard's partials.
func (r *Router) releaseLocked() {
	for _, tr := range r.trees.Values() {
		if len(tr.pending) == 0 {
			continue
		}
		wm := sim.Time(1<<63 - 1)
		for _, idx := range tr.p.shards {
			sh := r.shards[idx]
			if sh.brk.State() != resilience.BreakerClosed {
				// A tripped (or still-probing) shard must not stall the
				// whole tree: its frozen clock is ignored and epochs release
				// degraded — marked with their coverage fraction — until the
				// breaker closes and the shard catches up.
				continue
			}
			if w := sh.watermark(); w < wm {
				wm = w
			}
		}
		force := max(len(tr.pending)-maxPending, 0)
		n := 0
		for ; n < len(tr.pending); n++ {
			e := tr.pending[n]
			if e.At >= wm && n >= force {
				break
			}
			if e.At >= wm {
				r.stats.ForcedReleases++
			}
			r.releaseEpochLocked(tr, e)
			tr.released = e.At
			e.Rows = nil // handed to the subscribers
		}
		r.epochs.Drop(&tr.pending, n)
		// A tree can lose its last subscriber via eviction during release.
		if tr.Empty() {
			r.teardownTreeLocked(tr)
		}
	}
}

func (r *Router) releaseEpochLocked(tr *tree, e *tier.Epoch) {
	r.stats.MergedEpochs++
	// Coverage: a spanned shard has contributed everything it will for
	// this epoch exactly when its watermark passed the epoch's instant.
	// Anything released ahead of a shard's watermark (breaker exclusion,
	// maxPending force-release) is degraded, with the contributing
	// fraction on every delivered update.
	spanned := tr.p.shards
	covered := 0
	var coveredMask uint64
	for _, idx := range spanned {
		if r.shards[idx].watermark() > e.At {
			covered++
			coveredMask |= 1 << uint(idx)
		}
	}
	degraded := covered < len(spanned)
	coverage := 1.0
	if len(spanned) > 0 {
		coverage = float64(covered) / float64(len(spanned))
	}
	if degraded {
		r.stats.DegradedEpochs++
	}
	if r.cfg.Tracer != nil && tr.trace != 0 {
		// One release span per epoch on the materializing trace; DurMS is
		// the virtual watermark wait from the epoch's instant to release.
		kind := tracing.KindMergeRelease
		if degraded {
			kind = tracing.KindDegraded
		}
		at := time.Duration(e.At).Milliseconds()
		r.cfg.Tracer.Record(tracing.Span{
			Trace:    tr.trace,
			Parent:   tr.spanID,
			Kind:     kind,
			Shard:    tracing.NoShard,
			AtMS:     at,
			DurMS:    r.nowMS() - at,
			Seq:      uint64(len(spanned)),
			Degraded: degraded,
			Coverage: coverage,
		})
	}
	u := gateway.Update{
		QueryID:  tr.QID,
		At:       e.At,
		Rows:     e.Rows,
		Degraded: degraded,
		Coverage: coverage,
	}
	if tr.p.agg {
		u.Aggs = e.Finish(e.At, tr.p.q.Aggs)
	}
	if r.cfg.Tracer != nil {
		u.Prov = tracing.Prov{Shards: coveredMask}
	}
	tr.Deliver(&u)
}

// ---------------------------------------------------------------------------
// Failure injection and recovery

// CrashShard kills shard i's gateway process abruptly (no clean
// shutdown). Its trees stall at the frozen watermark until RecoverShard.
func (r *Router) CrashShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, err := r.shardLocked(i)
	if err != nil {
		return err
	}
	if !sh.alive {
		return fmt.Errorf("federation: shard %d is already down", i)
	}
	if err := sh.gw.Crash(); err != nil {
		return err
	}
	r.freezeLocked(sh)
	r.stats.ShardCrashes++
	return nil
}

// freezeLocked marks a shard dead — crashed, failed under a step, or going
// down with the router: its watermark freezes at its clock, and the router
// lets go of its session and upstream streams until RecoverShard
// re-attaches them. A partitioned shard's watermark froze at the partition:
// its clock ran on while the router heard nothing from it, so it stays.
func (r *Router) freezeLocked(sh *shard) {
	if sh.reachable {
		sh.frozen = sh.vnow
	}
	sh.alive, sh.reachable, sh.sess = false, false, nil
	for _, up := range sh.ups.Values() {
		up.Detach()
	}
	r.refreshBrownoutLocked()
}

// RecoverShard rebuilds a crashed shard from its WAL, re-attaches the
// router's upstream session by its durable token, resumes every upstream
// stream from its last delivered sequence number, and replays the shard
// forward to the router's clock one quantum at a time (draining between
// steps so no upstream buffer overflows).
func (r *Router) RecoverShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, err := r.shardLocked(i)
	if err != nil {
		return err
	}
	if sh.alive {
		return fmt.Errorf("federation: shard %d is alive", i)
	}
	if sh.cfg.WALPath == "" {
		return fmt.Errorf("federation: shard %d has no WAL (set Config.WALDir)", i)
	}
	gw, err := gateway.Recover(sh.cfg)
	if err != nil {
		return fmt.Errorf("federation: shard %d recover: %w", i, err)
	}
	sh.gw = gw
	if err := r.reattachLocked(sh); err != nil {
		return err
	}
	sh.alive = true
	sh.reachable = true
	r.stats.ShardRecoveries++
	r.catchUpLocked(sh)
	r.refreshBrownoutLocked()
	return nil
}

// PartitionShard cuts the router off from shard i without stopping it:
// the upstream session detaches, so the shard keeps advancing and its
// updates park in bounded resume rings until HealShard.
func (r *Router) PartitionShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, err := r.shardLocked(i)
	if err != nil {
		return err
	}
	if !sh.alive {
		return fmt.Errorf("federation: shard %d is down", i)
	}
	if !sh.reachable {
		return fmt.Errorf("federation: shard %d is already partitioned", i)
	}
	if err := sh.sess.Detach(); err != nil {
		return err
	}
	sh.reachable = false
	sh.frozen = sh.vnow
	for _, up := range sh.ups.Values() {
		up.Detach() // streams closed with ReasonDetached
	}
	r.stats.Partitions++
	return nil
}

// HealShard reconnects a partitioned shard: the upstream session
// re-attaches and every stream resumes from its last delivered sequence,
// replaying the parked tail (bounded by the shard's resume rings).
func (r *Router) HealShard(i int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, err := r.shardLocked(i)
	if err != nil {
		return err
	}
	if !sh.alive {
		return fmt.Errorf("federation: shard %d is down (use RecoverShard)", i)
	}
	if sh.reachable {
		return fmt.Errorf("federation: shard %d is not partitioned", i)
	}
	if err := r.reattachLocked(sh); err != nil {
		return err
	}
	sh.reachable = true
	r.stats.Heals++
	// The parked tails are already in the resumed streams; fold them in
	// now so the next Advance's watermark releases them in order.
	r.drainShardLocked(sh)
	return nil
}

// StallShard wedges shard i (stuck=true): its gateway stays alive and
// reachable but stops answering Advance, the way a live-locked or
// GC-thrashing process would — no crash, no partition, just silence.
// The router's per-shard circuit breaker observes the consecutive
// timeouts and trips open after Config.Breaker.TripAfter of them, at
// which point spanned trees release epochs without the shard (marked
// degraded with a coverage fraction) instead of stalling behind its
// frozen watermark. StallShard(i, false) un-wedges it; the next
// half-open probe succeeds, the breaker closes, and the shard replays
// forward to the router's clock.
func (r *Router) StallShard(i int, stuck bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	sh, err := r.shardLocked(i)
	if err != nil {
		return err
	}
	if !sh.alive {
		return fmt.Errorf("federation: shard %d is down", i)
	}
	if sh.stalled == stuck {
		if stuck {
			return fmt.Errorf("federation: shard %d is already stalled", i)
		}
		return fmt.Errorf("federation: shard %d is not stalled", i)
	}
	sh.stalled = stuck
	if stuck {
		r.stats.ShardStalls++
	}
	return nil
}

func (r *Router) shardLocked(i int) (*shard, error) {
	if r.k.ClosedLocked() {
		return nil, gateway.ErrClosed
	}
	if i < 0 || i >= len(r.shards) {
		return nil, fmt.Errorf("federation: no shard %d", i)
	}
	return r.shards[i], nil
}

// reattachLocked re-claims the router's upstream session on a shard and
// re-binds its upstream streams (tier.Reattach). A stream the shard no
// longer carries (e.g. its query was cancelled before the crash landed in
// the WAL) is orphaned: its tree stalls until teardown.
func (r *Router) reattachLocked(sh *shard) error {
	sess, infos, err := sh.gw.Attach(sh.name, sh.token)
	if err != nil {
		return fmt.Errorf("federation: shard %d attach: %w", sh.idx, err)
	}
	sh.sess = sess
	ids, ups := sh.ups.Keys(), sh.ups.Values()
	held := make([]*tier.Stream, len(ups))
	for i, up := range ups {
		held[i] = &up.Stream
	}
	r.stats.UpstreamResumes += int64(tier.Reattach(carrier{sess}, infos, held))
	for i, up := range ups {
		if up.ID() == 0 {
			sh.ups.Delete(ids[i])
		}
	}
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Record(tracing.Span{
			Kind:  tracing.KindReattach,
			Shard: int32(sh.idx),
			AtMS:  r.nowMS(),
			Seq:   uint64(sh.ups.Len()),
		})
	}
	return nil
}

// catchUpLocked replays a recovered shard forward to the router's clock,
// draining between quantum steps so upstream buffers never overflow.
func (r *Router) catchUpLocked(sh *shard) {
	for sh.vnow < r.now {
		d := min(r.quantum, time.Duration(r.now-sh.vnow))
		if _, err := sh.gw.Step(d); err != nil {
			r.freezeLocked(sh)
			return
		}
		sh.vnow += sim.Time(d)
		r.drainShardLocked(sh)
	}
}

// ---------------------------------------------------------------------------
// Shutdown

// Close shuts the router and every alive shard down. Staged commands and
// live downstream streams fail with ReasonShutdown.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.k.ClosedLocked() {
		r.mu.Unlock()
		return gateway.ErrClosed
	}
	// The fleet goes down with the router: mark it dead first so closing the
	// sessions stages nothing on shards that are about to close.
	gws := make([]*gateway.Gateway, 0, len(r.shards))
	for _, sh := range r.shards {
		if sh.alive {
			gws = append(gws, sh.gw)
		}
		r.freezeLocked(sh)
	}
	r.k.CloseLocked()
	r.mu.Unlock()

	var firstErr error
	for _, gw := range gws {
		if err := gw.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
