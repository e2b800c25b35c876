package share

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/tracing"
)

// Defaults.
const (
	// DefaultCell is the fragment cell width in sensor ids. Smaller cells
	// share more aggressively but admit more in-network queries per
	// subscriber; 8 matches the region granularity of the paper workloads.
	DefaultCell = 8
	// DefaultWindow is how many released epochs the result cache retains
	// per fragment and per canonical query.
	DefaultWindow = 4
	// maxPending bounds buffered incomplete epochs per query while a
	// fragment warms up or stalls.
	maxPending = 16
)

// Config parametrizes a Coordinator.
type Config struct {
	// Upstream is the tier the fragments stream from: OverGateway or
	// OverRouter (required).
	Upstream Upstream
	// Sensors is the deployment's sensor id space 1..Sensors (required);
	// it lets a query with no region predicate share fragments with one
	// that names the full range explicitly.
	Sensors int
	// Cell is the fragment cell width in sensor ids (DefaultCell if <= 0).
	Cell int
	// Window is the result-cache depth in epochs (DefaultWindow if <= 0;
	// negative disables caching).
	Window int
	// Buffer bounds each downstream subscriber stream and resume ring
	// (gateway.DefaultBuffer if <= 0).
	Buffer int
	// MaxSessions and SessionQuota mirror the gateway limits, enforced at
	// the coordinator (the upstream sees only the coordinator's own
	// sessions).
	MaxSessions  int
	SessionQuota int
	// MailboxDeadline is the default staging-sojourn budget for downstream
	// subscribes, mirroring the gateway's: zero disables, a per-command
	// budget (SubscribeRequest.Budget / wire deadline_ms) overrides.
	MailboxDeadline time.Duration
	// Tracer, when set, records the coordinator's causal spans (subscribe,
	// fragment CSE hit vs residual admission, cache replay) into a
	// caller-owned flight recorder; nil disables tracing at this tier.
	Tracer *tracing.Recorder
}

func (c Config) withDefaults() Config {
	if c.Cell <= 0 {
		c.Cell = DefaultCell
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Window < 0 {
		c.Window = 0
	}
	if c.Buffer <= 0 {
		c.Buffer = gateway.DefaultBuffer
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = gateway.DefaultMaxSessions
	}
	if c.SessionQuota <= 0 {
		c.SessionQuota = gateway.DefaultSessionQuota
	}
	return c
}

// Stats is the coordinator's counter snapshot. Like the gateway's, every
// field is a pure function of the committed command sequence and the
// upstream seed.
type Stats struct {
	// Session and downstream delivery accounting, mirroring the gateway's
	// (the kernel's counters). DedupHits counts subscribers joining an
	// already-live canonical query.
	tier.Stats
	// Trees is the live canonical query gauge.
	Trees int `json:"trees"`
	// Fragment registry accounting: Created fragments paid an upstream
	// admission (the residual cost), Reused ones were already streaming
	// for another query, Cancelled ones were torn down at refcount zero.
	FragmentsCreated   int64 `json:"fragments_created"`
	FragmentsReused    int64 `json:"fragments_reused"`
	FragmentsCancelled int64 `json:"fragments_cancelled"`
	FragmentsActive    int   `json:"fragments_active"`
	UpstreamSessions   int   `json:"upstream_sessions"`
	// Windowed-cache accounting: a subscribe is a CacheHit when it
	// replayed at least one recent epoch immediately, a CacheMiss when it
	// had to wait out a live epoch. ReplayedEpochs counts epochs served
	// from cache.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	ReplayedEpochs int64 `json:"replayed_epochs"`
	// Epoch recombination: MergedEpochs released complete compositions;
	// PartialDropped counts epochs discarded because a fragment (admitted
	// later) never contributed; LateDropped counts fragment epochs older
	// than the released watermark.
	MergedEpochs   int64 `json:"merged_epochs"`
	PartialDropped int64 `json:"partial_dropped"`
	LateDropped    int64 `json:"late_dropped"`
	// Upstream failover accounting.
	Reattaches      int64 `json:"reattaches"`
	UpstreamResumes int64 `json:"upstream_resumes"`
	// Resilience accounting: ReplaySheds counts cache replays skipped under
	// brownout pressure, DegradedEpochs counts released epochs built from
	// degraded (partial-coverage) upstream updates.
	ReplaySheds    int64 `json:"replay_sheds"`
	DegradedEpochs int64 `json:"degraded_epochs"`
}

// FragmentReuseRatio is the fraction of fragment references served by an
// already-materialized fragment (> 0 means CSE is sharing work).
func (st Stats) FragmentReuseRatio() float64 {
	total := st.FragmentsCreated + st.FragmentsReused
	if total == 0 {
		return 0
	}
	return float64(st.FragmentsReused) / float64(total)
}

// CacheHitRatio is the fraction of subscribes served an immediate replay.
func (st Stats) CacheHitRatio() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// cachedEpoch is one retained result epoch. degraded/coverage survive the
// cache so a stale epoch served during a shard brownout still tells the
// subscriber how much of the field it covers.
type cachedEpoch struct {
	at       sim.Time
	rows     []query.Row
	aggs     []query.AggResult
	degraded bool
	coverage float64
	// shards is the provenance shard mask OR'd over the contributing
	// upstream updates (zero when the upstream tier is untraced).
	shards uint64
}

// fragRef ties a fragment to one referencing tree and its planned index.
type fragRef struct {
	tr  *shareTree
	idx int
}

// fragment is one upstream stream in the registry, held by every tree it
// composes (the stream's holder count is its refcount).
type fragment struct {
	tier.Stream
	key     string
	sessIdx int
	trees   []fragRef
	ring    []cachedEpoch // last Window epochs, oldest first
}

// shareTree is one canonical downstream query: its plan, its fragment
// composition and (the embedded group) its subscribers.
type shareTree struct {
	tier.Group
	p     *sharePlan
	frags []*fragment // parallel to p.frags
	fresh bool        // some fragment was created for this tree (no warm cache)
	// pending buffers epochs, ascending by instant, until every fragment
	// has contributed.
	pending  []*tier.Epoch
	released sim.Time // newest instant delivered (or seeded by replay)
	ring     []cachedEpoch
	// reused counts the fragments satisfied by cross-query sharing when
	// the tree was established (provenance: Prov.Reused on deliveries).
	reused int
}

// Session, Sub and Ticket are the kernel's: a registered downstream client,
// one subscription to a composed fragment stream, and a staged command's
// handle.
type (
	Session = tier.Session
	Sub     = tier.Sub
	Ticket  = tier.Ticket
)

// Coordinator is the sharing layer. It implements gateway.Backend, so the
// TCP server (or any driver) fronts it exactly like a gateway or a
// federation router.
type Coordinator struct {
	// k is the downstream surface: sessions, staged commands, tickets and
	// per-subscriber streams, all guarded by mu.
	k   *tier.Kernel
	cfg Config

	mu sync.Mutex
	// up is read lock-free by the pacer's BrownoutLevel polls and swapped
	// under mu by Reattach.
	up     atomic.Pointer[upstream]
	upSess []UpstreamSession
	upLoad []int // live fragments per upstream session

	frags  *tier.Sorted[string, *fragment]
	trees  *tier.Sorted[string, *shareTree]
	staged []*fragment // fragments whose subscribes the upstream commits this round
	epochs tier.EpochPool
	stats  Stats
	// drainFrags is drainFragsLocked, bound once: a closure handed through
	// the UpstreamSession interface would allocate every round.
	drainFrags func()
}

// New builds a coordinator over cfg.Upstream. The upstream must be fresh:
// the coordinator assumes it is the only driver of upstream Advance.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("share: Config.Upstream is required")
	}
	if cfg.Sensors <= 0 {
		return nil, fmt.Errorf("share: Config.Sensors must name the sensor id space (got %d)", cfg.Sensors)
	}
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:   cfg,
		frags: tier.NewSorted[string, *fragment](),
		trees: tier.NewSorted[string, *shareTree](),
	}
	c.up.Store(&upstream{cfg.Upstream})
	c.drainFrags = c.drainFragsLocked
	kcfg := tier.Config{
		Name:            "share",
		Mu:              &c.mu,
		Buffer:          cfg.Buffer,
		MaxSessions:     cfg.MaxSessions,
		SessionQuota:    cfg.SessionQuota,
		MailboxDeadline: cfg.MailboxDeadline,
		Now:             c.Now,
		ApplySubscribe:  c.applySubscribeLocked,
		ReleaseGroup:    func(g *tier.Group) { c.teardownTreeLocked(c.trees.Get(g.Key)) },
	}
	if cfg.Tracer != nil {
		kcfg.Span = cfg.Tracer.Record
	}
	c.k = tier.New(kcfg)
	return c, nil
}

// Register creates a downstream session under a unique name; Attach
// re-claims a detached one by name and token.
func (c *Coordinator) Register(name string) (*Session, error) { return c.k.Register(name) }
func (c *Coordinator) Attach(name, token string) (*Session, []gateway.ResumeInfo, error) {
	return c.k.Attach(name, token)
}

// ShareStats snapshots the coordinator's own counters.
func (c *Coordinator) ShareStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsLocked()
}

func (c *Coordinator) statsLocked() Stats {
	st := c.stats
	st.Stats = c.k.StatsLocked()
	st.Trees = c.trees.Len()
	st.FragmentsActive = c.frags.Len()
	st.UpstreamSessions = len(c.upSess)
	return st
}

// Now returns the upstream's virtual clock.
func (c *Coordinator) Now() sim.Time { return c.up.Load().Now() }

// Alive reports whether the upstream is up.
func (c *Coordinator) Alive() bool { return c.up.Load().Alive() }

// ServeStats implements gateway.Backend: the upstream's counters with the
// serving-tier fields overridden by the coordinator's own view, so one
// status line reads correctly whichever backend the server fronts.
func (c *Coordinator) ServeStats() (gateway.Stats, sim.Time, error) {
	st, now, err := c.up.Load().ServeStats()
	if err != nil {
		return st, now, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.statsLocked()
	s.Overlay(&st)
	st.SharedQueries = s.Trees
	return st, now, nil
}

// BrownoutLevel implements gateway.Backend: the upstream's rung, which the
// coordinator also obeys — from LevelNoReplay on, fresh subscribers go live
// without the windowed cache, shedding the cheapest work first. Readable
// from any goroutine, like the gateway's.
func (c *Coordinator) BrownoutLevel() resilience.Level { return c.up.Load().BrownoutLevel() }

// ---------------------------------------------------------------------------
// Advance: group commit, upstream advance, drain, recombine, release

// Advance commits staged downstream commands, advances the upstream by d,
// drains fragment streams, recombines complete epochs and replays cached
// windows to fresh subscribers. Implements gateway.Backend.
func (c *Coordinator) Advance(d time.Duration) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.k.ClosedLocked() {
		return 0, gateway.ErrClosed
	}

	// Subscribe acks are deferred past fragment resolution and cache replay.
	applied, acks := c.k.CommitLocked()
	c.k.ReapLocked(gateway.DefaultIdleTimeout)

	_, upErr := c.up.Load().Advance(d)

	// The upstream has committed the fragment subscribes staged at commit.
	for _, fr := range c.staged {
		src, err := fr.Resolve()
		for _, ref := range fr.trees {
			switch {
			case err != nil && ref.tr.Broken == nil:
				ref.tr.Broken = fmt.Errorf("share: fragment admission %q: %w", fr.key, err)
			case src != nil && ref.idx == 0:
				ref.tr.QID = src.QueryID()
			}
		}
	}
	c.staged = nil
	c.replayLocked(acks)
	if len(c.upSess) > 0 && c.frags.Len() > 0 {
		c.upSess[0].Read(c.drainFrags)
	}
	c.releaseLocked()
	c.k.AckLocked(acks)
	return applied, upErr
}

// drainFragsLocked folds every fragment in key order, the order their floats
// add in; the coordinator runs it inside one Read on its upstream, whose
// stream lock every upstream session shares. A stream the upstream closed
// under us (crash, eviction) stalls its trees until reattach or teardown.
func (c *Coordinator) drainFragsLocked() {
	for _, fr := range c.frags.Values() {
		fr.Drain(func(u gateway.Update) { c.mergeLocked(fr, u) })
	}
}

// applySubscribeLocked is the kernel's admission hook: join the query's live
// tree, or plan a new one as a composition of fragments — the ones already
// streaming are shared, only the residual is admitted upstream.
func (c *Coordinator) applySubscribeLocked(a tier.Admission) (*tier.Group, error) {
	p, err := planShare(a.Query, c.cfg.Sensors, c.cfg.Cell)
	if err != nil {
		return nil, err
	}
	if tr := c.trees.Get(p.key); tr != nil {
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Record(tracing.Span{
				Trace:  a.Trace,
				Parent: a.Span,
				Kind:   tracing.KindDedupHit,
				Shard:  tracing.NoShard,
				AtMS:   c.nowMS(),
				Frags:  int32(len(tr.frags)),
				Reused: int32(tr.reused),
				Note:   p.key,
			})
		}
		return &tr.Group, nil
	}
	tr := &shareTree{Group: tier.Group{Key: p.key}, p: p}
	for i, fq := range p.frags {
		fr := c.frags.Get(fq.key)
		if fr == nil {
			fctx := c.traceFragLocked(a.Trace, a.Span, tracing.KindResidualAdmit, fq.key)
			fr, err = c.materializeLocked(fq, fctx)
			if err != nil {
				// Roll back the references this tree already took.
				for _, held := range tr.frags {
					c.decrefLocked(held, tr)
				}
				return nil, err
			}
			tr.fresh = true
			c.stats.FragmentsCreated++
		} else {
			c.traceFragLocked(a.Trace, a.Span, tracing.KindCSEHit, fq.key)
			fr.Hold()
			tr.reused++
			c.stats.FragmentsReused++
		}
		fr.trees = append(fr.trees, fragRef{tr: tr, idx: i})
		tr.frags = append(tr.frags, fr)
	}
	c.trees.Set(p.key, tr)
	return &tr.Group, nil
}

// traceFragLocked records one fragment hop (residual-admit or cse-hit)
// and returns the context a residual admission carries upstream, so the
// upstream tier's spans parent on the fragment hop that caused them.
func (c *Coordinator) traceFragLocked(trace, parent uint64, kind, key string) tracing.Context {
	if c.cfg.Tracer == nil || trace == 0 {
		return tracing.Context{}
	}
	id := c.cfg.Tracer.Record(tracing.Span{
		Trace:  trace,
		Parent: parent,
		Kind:   kind,
		Shard:  tracing.NoShard,
		AtMS:   c.nowMS(),
		Note:   key,
	})
	return tracing.Context{Trace: trace, Span: id}
}

func (c *Coordinator) nowMS() int64 { return time.Duration(c.Now()).Milliseconds() }

// materializeLocked admits one new fragment upstream: it picks (or grows)
// an upstream session with quota headroom — the upstream's default session
// quota of fragments each — and stages the subscribe; the
// ticket resolves after the upstream's next Advance. fctx, when live,
// rides the admission so the upstream tier joins the fragment's trace.
func (c *Coordinator) materializeLocked(fq fragQuery, fctx tracing.Context) (*fragment, error) {
	idx := -1
	for i, load := range c.upLoad {
		if load < gateway.DefaultSessionQuota {
			idx = i
			break
		}
	}
	if idx == -1 {
		sess, err := c.up.Load().Register(fmt.Sprintf("share-up-%d", len(c.upSess)))
		if err != nil {
			return nil, fmt.Errorf("share: upstream session: %w", err)
		}
		c.upSess = append(c.upSess, sess)
		c.upLoad = append(c.upLoad, 0)
		idx = len(c.upSess) - 1
	}
	// Without a trace context to forward, admit through the plain seam
	// method, so a decorated Upstream sees every admission.
	var tk UpstreamTicket
	var err error
	if ts, ok := c.upSess[idx].(tracedUpstreamSession); ok && fctx.Trace != 0 {
		tk, err = ts.subscribeTraced(fq.q, fctx)
	} else {
		tk, err = c.upSess[idx].SubscribeAsync(fq.q)
	}
	if err != nil {
		return nil, fmt.Errorf("share: fragment subscribe: %w", err)
	}
	fr := &fragment{key: fq.key, sessIdx: idx}
	fr.Stage(c.upSess[idx], func() (tier.Source, error) { return tk.Wait() })
	c.frags.Set(fq.key, fr)
	c.upLoad[idx]++
	c.staged = append(c.staged, fr)
	return fr, nil
}

// decrefLocked drops one tree's reference on a fragment, cancelling the
// upstream stream at refcount zero — at once, when it resolves, or at the
// re-attach of an upstream that is down (tier.Stream) — and counting the
// cancellation once, here. This runs on every path a subscriber leaves by —
// unsubscribe, session close, slow-consumer eviction — so an evicted
// session's fragments are released exactly like a cancelled one's.
func (c *Coordinator) decrefLocked(fr *fragment, tr *shareTree) {
	fr.trees = slices.DeleteFunc(fr.trees, func(ref fragRef) bool { return ref.tr == tr })
	if !fr.Release() {
		return
	}
	c.frags.Delete(fr.key)
	c.upLoad[fr.sessIdx]--
	c.stats.FragmentsCancelled++
}

func (c *Coordinator) teardownTreeLocked(tr *shareTree) {
	for _, fr := range tr.frags {
		c.decrefLocked(fr, tr)
	}
	tr.frags = nil
	c.trees.Delete(tr.Key)
}

// replayLocked serves the windowed cache to fresh subscribers before any
// live epoch from this Advance can reach them, keeping per-stream virtual
// time monotonic. A subscriber joining a live tree replays the tree's own
// released window; the first subscriber of a new tree whose fragments all
// pre-existed gets a window synthesized from the fragment caches.
func (c *Coordinator) replayLocked(acks []tier.Ack) {
	// Brownout: replay is the first work shed. Fresh subscribers go live
	// without history instead of costing a window of pushes each.
	shed := c.BrownoutLevel() >= resilience.LevelNoReplay
	for _, a := range acks {
		tr := c.trees.Get(a.Sub.Key())
		if tr == nil || &tr.Group != a.Sub.Group() || tr.Broken != nil {
			continue // left in the commit that admitted it, or broken
		}
		if shed {
			c.stats.ReplaySheds++
			continue
		}
		if !a.Sub.Shared() && !tr.fresh && c.cfg.Window > 0 {
			c.synthesizeLocked(tr)
		}
		if len(tr.ring) == 0 {
			c.stats.CacheMisses++
			continue
		}
		c.stats.CacheHits++
		for _, e := range tr.ring {
			u := c.updateLocked(tr, e, true)
			a.Sub.Push(&u)
			c.stats.ReplayedEpochs++
		}
		if c.cfg.Tracer != nil {
			oldest := time.Duration(tr.ring[0].at).Milliseconds()
			newest := time.Duration(tr.ring[len(tr.ring)-1].at).Milliseconds()
			c.cfg.Tracer.Record(tracing.Span{
				Trace:    a.Sub.TraceID(),
				Parent:   a.Sub.SpanID(),
				Kind:     tracing.KindCacheReplay,
				Shard:    tracing.NoShard,
				AtMS:     c.nowMS(),
				DurMS:    newest - oldest,
				Seq:      uint64(len(tr.ring)),
				CacheHit: true,
				Frags:    int32(len(tr.frags)),
			})
		}
	}
}

// synthesizeLocked rebuilds a new tree's recent window from the caches of
// its (all pre-existing) fragments: the epochs present in every fragment
// ring recombine exactly like live ones.
func (c *Coordinator) synthesizeLocked(tr *shareTree) {
	counts := make(map[sim.Time]int)
	for _, fr := range tr.frags {
		for _, e := range fr.ring {
			counts[e.at]++
		}
	}
	var ats []sim.Time
	for at, n := range counts {
		if n == len(tr.frags) {
			ats = append(ats, at)
		}
	}
	slices.Sort(ats)
	if len(ats) > c.cfg.Window {
		ats = ats[len(ats)-c.cfg.Window:]
	}
	for _, at := range ats {
		acc := tier.Epoch{At: at}
		for i, fr := range tr.frags {
			for _, e := range fr.ring {
				if e.at == at {
					acc.Rows = append(acc.Rows, e.rows...)
					acc.Add(i, &gateway.Update{Aggs: e.aggs, Degraded: e.degraded, Coverage: e.coverage,
						Prov: tracing.Prov{Shards: e.shards}})
					break
				}
			}
		}
		tr.ring = append(tr.ring, tr.p.finish(&acc))
		tr.released = at
	}
}

// mergeLocked folds one fragment update into the fragment's cache ring and
// the referencing trees' pending epochs.
func (c *Coordinator) mergeLocked(fr *fragment, u gateway.Update) {
	if c.cfg.Window > 0 {
		fr.ring = append(fr.ring, cachedEpoch{at: u.At, rows: u.Rows, aggs: u.Aggs,
			degraded: u.Degraded, coverage: u.Coverage, shards: u.Prov.Shards})
		if len(fr.ring) > c.cfg.Window {
			fr.ring = append(fr.ring[:0], fr.ring[len(fr.ring)-c.cfg.Window:]...)
		}
	}
	for _, ref := range fr.trees {
		if ref.tr.released > 0 && u.At <= ref.tr.released {
			c.stats.LateDropped++
			continue
		}
		e := c.epochs.At(&ref.tr.pending, u.At)
		e.Rows = append(e.Rows, u.Rows...)
		e.Add(ref.idx, &u)
	}
}

// releaseLocked delivers every complete epoch in virtual-time order. An
// incomplete epoch older than a complete one can never complete (aligned
// epochs: a fragment that skipped it will not revisit it) and is dropped
// rather than delivered with wrong partial values.
func (c *Coordinator) releaseLocked() {
	for _, tr := range c.trees.Values() {
		if len(tr.pending) == 0 {
			continue
		}
		nf := len(tr.frags)
		for _, e := range tr.pending {
			if e.Complete(nf) {
				c.releaseEpochLocked(tr, e)
				tr.released = e.At
			}
		}
		// Sweep the released epochs and the unreleasable ones — the
		// incomplete ones up to the newest released, then the oldest beyond
		// the pending bound (a stalled fragment must not leak memory).
		n := 0
		for ; n < len(tr.pending) && tr.pending[n].At <= tr.released; n++ {
			if !tr.pending[n].Complete(nf) {
				c.stats.PartialDropped++
			}
		}
		over := max(len(tr.pending)-n-maxPending, 0)
		c.stats.PartialDropped += int64(over)
		c.epochs.Drop(&tr.pending, n+over)
		// A tree can lose its last subscriber via eviction during release.
		if tr.Empty() {
			c.teardownTreeLocked(tr)
		}
	}
}

func (c *Coordinator) releaseEpochLocked(tr *shareTree, acc *tier.Epoch) {
	c.stats.MergedEpochs++
	if acc.Degraded {
		c.stats.DegradedEpochs++
	}
	e := tr.p.finish(acc)
	if c.cfg.Window > 0 {
		tr.ring = append(tr.ring, e)
		if len(tr.ring) > c.cfg.Window {
			tr.ring = append(tr.ring[:0], tr.ring[len(tr.ring)-c.cfg.Window:]...)
		}
	}
	u := c.updateLocked(tr, e, false)
	tr.Deliver(&u)
}

// updateLocked shapes one epoch for delivery to tr's subscribers; the
// kernel stamps each copy with its subscriber's id, sequence number and
// trace. replay marks cache-window deliveries so the provenance record
// distinguishes them from live releases.
func (c *Coordinator) updateLocked(tr *shareTree, e cachedEpoch, replay bool) gateway.Update {
	u := gateway.Update{
		QueryID:  tr.QID,
		At:       e.at,
		Rows:     e.rows,
		Aggs:     e.aggs,
		Degraded: e.degraded,
		Coverage: e.coverage,
	}
	if c.cfg.Tracer != nil {
		u.Prov = tracing.Prov{
			Shards:   e.shards,
			Frags:    uint16(len(tr.frags)),
			Reused:   uint16(tr.reused),
			CacheHit: replay,
			Rung:     uint8(c.BrownoutLevel()),
		}
	}
	return u
}

// ---------------------------------------------------------------------------
// Upstream failover

// Reattach rebinds the coordinator to a recovered upstream (e.g. a
// gateway rebuilt from its WAL after a crash): every coordinator-owned
// upstream session re-claims its name and token, and every fragment
// stream resumes from its last drained sequence number — so downstream
// subscribers see a pause, never a duplicate or a gap, and the windowed
// cache (which lives here, not upstream) keeps serving replays across
// the outage. A stream the upstream still carries for a fragment torn down
// during the outage is unsubscribed (tier.Reattach).
func (c *Coordinator) Reattach(up Upstream) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.k.ClosedLocked() {
		return gateway.ErrClosed
	}
	fresh := make([]UpstreamSession, len(c.upSess))
	carried := make([][]gateway.ResumeInfo, len(c.upSess))
	for i, old := range c.upSess {
		sess, infos, err := up.Attach(old.Name(), old.Token())
		if err != nil {
			return fmt.Errorf("share: reattach session %q: %w", old.Name(), err)
		}
		fresh[i], carried[i] = sess, infos
	}
	c.up.Store(&upstream{up})
	c.upSess = fresh
	c.stats.Reattaches++
	for i, sess := range fresh {
		var held []*tier.Stream
		for _, fr := range c.frags.Values() {
			if fr.sessIdx == i {
				held = append(held, &fr.Stream)
			}
		}
		c.stats.UpstreamResumes += int64(tier.Reattach(sess, carried[i], held))
	}
	return nil
}

// Close tears down every session and fragment. The upstream is left to
// its owner.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.k.ClosedLocked() {
		return gateway.ErrClosed
	}
	c.k.CloseLocked()
	return nil
}
