package share

import (
	"repro/internal/telemetry"
	"repro/internal/tier"
	"repro/internal/tracing"
)

// RegisterMetrics mounts the sharing layer's metric families on r and
// installs a gather hook that syncs them before every exposition. It
// follows the gateway's contract: the session families are the kernel's
// (tier.RegisterMetrics), counters mirror Stats through monotonic Set, the
// hook reads through current() so the registry survives the
// coordinator being swapped (or absent — a nil current() leaves the last
// consistent values standing), and everything is a pure function of the
// committed command sequence, never the wall clock.
//
// Two derived gauges headline the layer: ttmqo_share_fragment_reuse_ratio
// (how often a planned fragment was already streaming) and
// ttmqo_cache_hit_ratio (how often a new subscriber's window replayed
// from cache instead of waiting out an epoch).
func RegisterMetrics(r *telemetry.Registry, current func() *Coordinator) {
	setSession := tier.RegisterMetrics(r, tracing.TierShare)
	setPolicy := telemetry.Mirror(r, []telemetry.Row[Stats]{
		{Name: "ttmqo_share_fragments_created_total", Help: "fragments newly materialized upstream", Get: func(s Stats) int64 { return s.FragmentsCreated }},
		{Name: "ttmqo_share_fragments_reused_total", Help: "planned fragments satisfied by the registry", Get: func(s Stats) int64 { return s.FragmentsReused }},
		{Name: "ttmqo_share_fragments_cancelled_total", Help: "refcount-zero fragment cancellations", Get: func(s Stats) int64 { return s.FragmentsCancelled }},
		{Name: "ttmqo_share_merged_epochs_total", Help: "complete epochs recombined from fragments", Get: func(s Stats) int64 { return s.MergedEpochs }},
		{Name: "ttmqo_share_partial_dropped_total", Help: "incomplete epochs superseded by a later complete one", Get: func(s Stats) int64 { return s.PartialDropped }},
		{Name: "ttmqo_share_late_dropped_total", Help: "fragment epochs arriving behind the release watermark", Get: func(s Stats) int64 { return s.LateDropped }},
		{Name: "ttmqo_share_reattaches_total", Help: "upstream failovers re-attached", Get: func(s Stats) int64 { return s.Reattaches }},
		{Name: "ttmqo_share_upstream_resumes_total", Help: "fragment streams resumed after an upstream failover", Get: func(s Stats) int64 { return s.UpstreamResumes }},
		{Name: "ttmqo_cache_hits_total", Help: "new subscribers whose window replayed from cache", Get: func(s Stats) int64 { return s.CacheHits }},
		{Name: "ttmqo_cache_misses_total", Help: "new subscribers with no cached window", Get: func(s Stats) int64 { return s.CacheMisses }},
		{Name: "ttmqo_cache_replayed_epochs_total", Help: "cached epochs replayed to late subscribers", Get: func(s Stats) int64 { return s.ReplayedEpochs }},
		{Name: "ttmqo_resilience_replay_sheds_total", Help: "cache replays skipped under brownout pressure", Get: func(s Stats) int64 { return s.ReplaySheds }},
		{Name: "ttmqo_resilience_share_shed_deadline_total", Help: "subscribes shed: coordinator mailbox sojourn exceeded the budget", Get: func(s Stats) int64 { return s.ShedDeadline }},
		{Name: "ttmqo_resilience_share_degraded_epochs_total", Help: "epochs recombined from degraded (partial-coverage) upstream updates", Get: func(s Stats) int64 { return s.DegradedEpochs }},
	})

	trees := r.NewGauge("ttmqo_share_trees", "distinct live canonical queries (share trees)")
	fragments := r.NewGauge("ttmqo_share_fragments_active", "distinct fragments streaming upstream")
	upSessions := r.NewGauge("ttmqo_share_upstream_sessions", "pooled upstream sessions owned by the coordinator")
	reuseRatio := r.NewGauge("ttmqo_share_fragment_reuse_ratio", "reused / (created + reused) planned fragments")
	hitRatio := r.NewGauge("ttmqo_cache_hit_ratio", "cache hits / (hits + misses) for new subscribers")

	r.OnGather(func() {
		c := current()
		if c == nil {
			return
		}
		st := c.ShareStats()
		setSession(c.Alive(), st.Stats)
		setPolicy(st)
		trees.Gauge().Set(float64(st.Trees))
		fragments.Gauge().Set(float64(st.FragmentsActive))
		upSessions.Gauge().Set(float64(st.UpstreamSessions))
		reuseRatio.Gauge().Set(st.FragmentReuseRatio())
		hitRatio.Gauge().Set(st.CacheHitRatio())
	})
}
