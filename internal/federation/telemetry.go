package federation

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tier"
	"repro/internal/tracing"
)

// MergeLatencyBounds are the router merge-latency histogram's bucket
// bounds in (wall-clock) seconds: one observation per Advance covering
// upstream drain, recombination and downstream release.
var MergeLatencyBounds = []float64{
	50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3,
}

// RegisterMetrics mounts the federation tier's metric families on r and
// installs a gather hook that syncs them before every exposition. The
// session families are the kernel's (tier.RegisterMetrics) and every
// counter mirrors through monotonic Set, as on the gateway; per-shard
// families carry a "shard" label. The merge latency histogram is fed live
// via the router's merge observer, so it accumulates between scrapes.
func RegisterMetrics(r *telemetry.Registry, current func() *Router) {
	setSession := tier.RegisterMetrics(r, tracing.TierRouter)
	aliveShards := r.NewGauge("ttmqo_router_alive_shards", "shards whose gateway is up")
	trees := r.NewGauge("ttmqo_router_query_trees", "live canonical cross-shard queries")
	upstreamSubs := r.NewGauge("ttmqo_router_upstream_subscriptions", "live canonical upstream subscriptions across shards")
	setPolicy := telemetry.Mirror(r, []telemetry.Row[Stats]{
		{Name: "ttmqo_router_partial_updates_total", Help: "per-shard partial updates drained", Get: func(s Stats) int64 { return s.PartialUpdates }},
		{Name: "ttmqo_router_merged_epochs_total", Help: "epochs released by the watermark", Get: func(s Stats) int64 { return s.MergedEpochs }},
		{Name: "ttmqo_router_forced_releases_total", Help: "epochs released early by the pending bound", Get: func(s Stats) int64 { return s.ForcedReleases }},
		{Name: "ttmqo_router_late_dropped_total", Help: "partials that arrived for an already-released epoch", Get: func(s Stats) int64 { return s.LateDropped }},
		{Name: "ttmqo_shard_crashes_total", Help: "shard gateways crashed", Get: func(s Stats) int64 { return s.ShardCrashes }},
		{Name: "ttmqo_shard_recoveries_total", Help: "shard gateways rebuilt by WAL replay", Get: func(s Stats) int64 { return s.ShardRecoveries }},
		{Name: "ttmqo_shard_partitions_total", Help: "router-shard partitions injected", Get: func(s Stats) int64 { return s.Partitions }},
		{Name: "ttmqo_shard_heals_total", Help: "router-shard partitions healed", Get: func(s Stats) int64 { return s.Heals }},
		{Name: "ttmqo_router_upstream_resumes_total", Help: "upstream streams resumed after recover/heal", Get: func(s Stats) int64 { return s.UpstreamResumes }},
		{Name: "ttmqo_resilience_breaker_trips_total", Help: "per-shard circuit breakers tripped open on consecutive stuck rounds", Get: func(s Stats) int64 { return s.BreakerTrips }},
		{Name: "ttmqo_resilience_breaker_probes_total", Help: "half-open probes issued after breaker cooldowns", Get: func(s Stats) int64 { return s.BreakerProbes }},
		{Name: "ttmqo_resilience_breaker_recoveries_total", Help: "breakers closed again after a successful probe", Get: func(s Stats) int64 { return s.BreakerRecoveries }},
		{Name: "ttmqo_resilience_degraded_epochs_total", Help: "epochs released without full shard coverage", Get: func(s Stats) int64 { return s.DegradedEpochs }},
		{Name: "ttmqo_resilience_shard_stalls_total", Help: "stuck-shard injections (StallShard)", Get: func(s Stats) int64 { return s.ShardStalls }},
		{Name: "ttmqo_resilience_router_shed_deadline_total", Help: "downstream subscribes shed: router mailbox sojourn exceeded the budget", Get: func(s Stats) int64 { return s.ShedDeadline }},
	})

	shardUp := r.NewGauge("ttmqo_shard_up", "1 while the shard's gateway is up", "shard")
	shardVTime := r.NewGauge("ttmqo_shard_virtual_time_seconds", "the shard's elapsed virtual time", "shard")
	shardUpdates := r.NewCounter("ttmqo_shard_updates_total", "result deliveries fanned out by the shard gateway", "shard")
	shardEpochs := r.NewCounter("ttmqo_shard_epochs_total", "result epochs produced by the shard simulation", "shard")
	shardUpstreams := r.NewGauge("ttmqo_shard_upstream_subscriptions", "canonical upstream subscriptions held on the shard", "shard")
	breakerState := r.NewGauge("ttmqo_resilience_breaker_state", "shard circuit-breaker state: 0 closed, 1 open, 2 half-open", "shard")
	stalledShards := r.NewGauge("ttmqo_resilience_stalled_shards", "shards currently wedged by a stuck-shard injection")

	mergeHist := r.NewHistogram("ttmqo_router_merge_latency_seconds",
		"wall-clock time per Advance spent draining, recombining and releasing partial results", MergeLatencyBounds)
	observe := func(d time.Duration) { mergeHist.Histogram().Observe(d.Seconds()) }
	if rt := current(); rt != nil {
		rt.SetMergeObserver(observe)
	}

	r.OnGather(func() {
		rt := current()
		if rt == nil {
			return
		}
		rt.SetMergeObserver(observe)
		st := rt.FedStats()
		setSession(rt.Alive(), st.Stats)
		setPolicy(st)
		aliveShards.Gauge().Set(float64(st.AliveShards))
		trees.Gauge().Set(float64(st.Trees))
		upstreamSubs.Gauge().Set(float64(st.UpstreamSubs))
		stalledShards.Gauge().Set(float64(st.StalledShards))
		for i, sh := range rt.ShardStates() {
			label := strconv.Itoa(i)
			if sh.Alive {
				shardUp.Gauge(label).Set(1)
			} else {
				shardUp.Gauge(label).Set(0)
			}
			breakerState.Gauge(label).Set(float64(sh.Breaker))
			shardVTime.Gauge(label).Set(time.Duration(sh.Now).Seconds())
			shardUpstreams.Gauge(label).Set(float64(sh.Upstreams))
			gst, err := rt.ShardStats(i)
			if err != nil {
				continue
			}
			shardUpdates.Counter(label).Set(float64(gst.Updates))
			shardEpochs.Counter(label).Set(float64(gst.Epochs))
		}
	})
}
