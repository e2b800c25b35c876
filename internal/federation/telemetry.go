package federation

import (
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// MergeLatencyBounds are the router merge-latency histogram's bucket
// bounds in (wall-clock) seconds: one observation per Advance covering
// upstream drain, recombination and downstream release.
var MergeLatencyBounds = []float64{
	50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3,
}

// RegisterMetrics mounts the federation tier's metric families on r and
// installs a gather hook that syncs them before every exposition. Router
// counters mirror through monotonic Set (the same contract as the
// gateway families); per-shard families carry a "shard" label. The merge
// latency histogram is fed live via the router's merge observer, so it
// accumulates between scrapes.
func RegisterMetrics(r *telemetry.Registry, current func() *Router) {
	routerUp := r.NewGauge("ttmqo_router_up", "1 while the federation router is serving")
	aliveShards := r.NewGauge("ttmqo_router_alive_shards", "shards whose gateway is up")
	trees := r.NewGauge("ttmqo_router_query_trees", "live canonical cross-shard queries")
	upstreamSubs := r.NewGauge("ttmqo_router_upstream_subscriptions", "live canonical upstream subscriptions across shards")

	type cf struct {
		fam *telemetry.Family
		get func(Stats) int64
	}
	counters := []cf{
		{r.NewCounter("ttmqo_router_sessions_total", "downstream sessions registered"), func(s Stats) int64 { return s.Sessions }},
		{r.NewCounter("ttmqo_router_subscribes_total", "downstream subscriptions accepted"), func(s Stats) int64 { return s.Subscribes }},
		{r.NewCounter("ttmqo_router_dedup_hits_total", "subscriptions coalesced onto an existing query tree"), func(s Stats) int64 { return s.DedupHits }},
		{r.NewCounter("ttmqo_router_partial_updates_total", "per-shard partial updates drained"), func(s Stats) int64 { return s.PartialUpdates }},
		{r.NewCounter("ttmqo_router_merged_epochs_total", "epochs released by the watermark"), func(s Stats) int64 { return s.MergedEpochs }},
		{r.NewCounter("ttmqo_router_updates_total", "merged updates delivered downstream"), func(s Stats) int64 { return s.Updates }},
		{r.NewCounter("ttmqo_router_forced_releases_total", "epochs released early by the pending bound"), func(s Stats) int64 { return s.ForcedReleases }},
		{r.NewCounter("ttmqo_router_late_dropped_total", "partials that arrived for an already-released epoch"), func(s Stats) int64 { return s.LateDropped }},
		{r.NewCounter("ttmqo_router_evicted_total", "downstream subscribers dropped on overflow"), func(s Stats) int64 { return s.Evicted }},
		{r.NewCounter("ttmqo_shard_crashes_total", "shard gateways crashed"), func(s Stats) int64 { return s.ShardCrashes }},
		{r.NewCounter("ttmqo_shard_recoveries_total", "shard gateways rebuilt by WAL replay"), func(s Stats) int64 { return s.ShardRecoveries }},
		{r.NewCounter("ttmqo_shard_partitions_total", "router-shard partitions injected"), func(s Stats) int64 { return s.Partitions }},
		{r.NewCounter("ttmqo_shard_heals_total", "router-shard partitions healed"), func(s Stats) int64 { return s.Heals }},
		{r.NewCounter("ttmqo_router_upstream_resumes_total", "upstream streams resumed after recover/heal"), func(s Stats) int64 { return s.UpstreamResumes }},
		{r.NewCounter("ttmqo_resilience_breaker_trips_total", "per-shard circuit breakers tripped open on consecutive stuck rounds"), func(s Stats) int64 { return s.BreakerTrips }},
		{r.NewCounter("ttmqo_resilience_breaker_probes_total", "half-open probes issued after breaker cooldowns"), func(s Stats) int64 { return s.BreakerProbes }},
		{r.NewCounter("ttmqo_resilience_breaker_recoveries_total", "breakers closed again after a successful probe"), func(s Stats) int64 { return s.BreakerRecoveries }},
		{r.NewCounter("ttmqo_resilience_degraded_epochs_total", "epochs released without full shard coverage"), func(s Stats) int64 { return s.DegradedEpochs }},
		{r.NewCounter("ttmqo_resilience_shard_stalls_total", "stuck-shard injections (StallShard)"), func(s Stats) int64 { return s.ShardStalls }},
		{r.NewCounter("ttmqo_resilience_router_shed_deadline_total", "downstream subscribes shed: router mailbox sojourn exceeded the budget"), func(s Stats) int64 { return s.ShedDeadline }},
	}

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
		if rt.Alive() {
			routerUp.Gauge().Set(1)
		} else {
			routerUp.Gauge().Set(0)
		}
		st := rt.FedStats()
		aliveShards.Gauge().Set(float64(st.AliveShards))
		trees.Gauge().Set(float64(st.Trees))
		upstreamSubs.Gauge().Set(float64(st.UpstreamSubs))
		stalledShards.Gauge().Set(float64(st.StalledShards))
		for _, c := range counters {
			c.fam.Counter().Set(float64(c.get(st)))
		}
		for i := 0; i < rt.Shards(); i++ {
			label := strconv.Itoa(i)
			if rt.ShardAlive(i) {
				shardUp.Gauge(label).Set(1)
			} else {
				shardUp.Gauge(label).Set(0)
			}
			breakerState.Gauge(label).Set(float64(rt.ShardBreaker(i)))
			shardVTime.Gauge(label).Set(time.Duration(rt.ShardNow(i)).Seconds())
			shardUpstreams.Gauge(label).Set(float64(rt.UpstreamSubsOn(i)))
			gst, err := rt.ShardStats(i)
			if err != nil {
				continue
			}
			shardUpdates.Counter(label).Set(float64(gst.Updates))
			shardEpochs.Counter(label).Set(float64(gst.Epochs))
		}
	})
}
