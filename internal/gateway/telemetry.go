package gateway

import (
	"strconv"

	"repro/internal/telemetry"
)

// TTFRBounds are the time-to-first-result histogram's bucket bounds, in
// virtual seconds. Epoch periods run seconds to tens of seconds, so the
// ladder doubles from 1s to 128s.
var TTFRBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// RegisterMetrics mounts the serving tier's metric families on r and
// installs a gather hook that syncs them before every exposition. The
// hook reads through current() so the same registry survives gateway
// crash/recovery cycles: the serve CLI and chaos harness swap the gateway
// under the hook's feet and the scrape follows. A nil current() gateway
// leaves the previous values standing (a scrape mid-swap sees the last
// consistent state).
//
// Counters mirror gateway.Stats through monotonic Set, so a recovery
// whose deterministic replay re-derives a smaller history (drops on
// long-gone live channels are not re-counted) never makes an exposed
// counter run backwards mid-scrape-series. Everything here is a pure
// function of seed and committed command sequence — no wall clock — so
// scrapes at a fixed virtual time are identical across client scheduling
// and experiment parallelism.
func RegisterMetrics(r *telemetry.Registry, current func() *Gateway) {
	up := r.NewGauge("ttmqo_gateway_up", "1 while the gateway is serving, 0 during a crash outage")

	type cf struct {
		fam *telemetry.Family
		get func(Stats) int64
	}
	counters := []cf{
		{r.NewCounter("ttmqo_gateway_sessions_total", "sessions registered"), func(s Stats) int64 { return s.Sessions }},
		{r.NewCounter("ttmqo_gateway_subscribes_total", "subscriptions accepted"), func(s Stats) int64 { return s.Subscribes }},
		{r.NewCounter("ttmqo_gateway_unsubscribes_total", "subscriptions removed"), func(s Stats) int64 { return s.Unsubscribes }},
		{r.NewCounter("ttmqo_gateway_rate_limited_total", "subscribes rejected by the token bucket"), func(s Stats) int64 { return s.RateLimited }},
		{r.NewCounter("ttmqo_gateway_quota_rejected_total", "subscribes rejected by the session quota"), func(s Stats) int64 { return s.QuotaRejected }},
		{r.NewCounter("ttmqo_gateway_admit_errors_total", "network admissions that failed"), func(s Stats) int64 { return s.AdmitErrors }},
		{r.NewCounter("ttmqo_gateway_dedup_hits_total", "subscriptions served by an already-admitted query"), func(s Stats) int64 { return s.DedupHits }},
		{r.NewCounter("ttmqo_gateway_admitted_total", "queries posted into the network"), func(s Stats) int64 { return s.Admitted }},
		{r.NewCounter("ttmqo_gateway_cancelled_total", "refcount-zero query cancellations"), func(s Stats) int64 { return s.Cancelled }},
		{r.NewCounter("ttmqo_gateway_updates_total", "result deliveries fanned out"), func(s Stats) int64 { return s.Updates }},
		{r.NewCounter("ttmqo_gateway_epochs_total", "result epochs from the simulation"), func(s Stats) int64 { return s.Epochs }},
		{r.NewCounter("ttmqo_gateway_dropped_updates_total", "deliveries lost to full buffers"), func(s Stats) int64 { return s.Dropped }},
		{r.NewCounter("ttmqo_gateway_evicted_total", "slow subscribers evicted"), func(s Stats) int64 { return s.Evicted }},
		{r.NewCounter("ttmqo_gateway_detaches_total", "session detaches"), func(s Stats) int64 { return s.Detaches }},
		{r.NewCounter("ttmqo_gateway_attaches_total", "session re-attaches"), func(s Stats) int64 { return s.Attaches }},
		{r.NewCounter("ttmqo_gateway_resumes_total", "subscription streams resumed"), func(s Stats) int64 { return s.Resumes }},
		{r.NewCounter("ttmqo_gateway_resume_gaps_total", "resumes that lost ring-shed updates"), func(s Stats) int64 { return s.ResumeGaps }},
		{r.NewCounter("ttmqo_gateway_ring_dropped_total", "updates shed from bounded resume rings"), func(s Stats) int64 { return s.RingDropped }},
		{r.NewCounter("ttmqo_gateway_idle_reaped_total", "detached sessions reaped by the idle timeout"), func(s Stats) int64 { return s.IdleReaped }},
		{r.NewCounter("ttmqo_gateway_recoveries_total", "gateways rebuilt by WAL replay"), func(s Stats) int64 { return s.Recoveries }},
		{r.NewCounter("ttmqo_wal_appends_total", "write-ahead-log records appended"), func(s Stats) int64 { return s.WALAppends }},
		{r.NewCounter("ttmqo_wal_compactions_total", "write-ahead-log rewrites"), func(s Stats) int64 { return s.WALCompactions }},
		{r.NewCounter("ttmqo_resilience_shed_queue_total", "subscribes shed at staging by the mailbox depth bound"), func(s Stats) int64 { return s.ShedQueue }},
		{r.NewCounter("ttmqo_resilience_shed_deadline_total", "subscribes shed at commit: mailbox sojourn exceeded the deadline budget"), func(s Stats) int64 { return s.ShedDeadline }},
		{r.NewCounter("ttmqo_resilience_shed_subs_total", "subscribes shed by the global concurrent-subscription cap"), func(s Stats) int64 { return s.ShedSubs }},
		{r.NewCounter("ttmqo_resilience_shed_brownout_total", "subscribes shed while the brownout ladder sat at its shed rung"), func(s Stats) int64 { return s.ShedBrownout }},
		{r.NewCounter("ttmqo_resilience_brownout_escalations_total", "brownout ladder steps toward heavier shedding"), func(s Stats) int64 { return s.BrownoutEscalations }},
		{r.NewCounter("ttmqo_resilience_brownout_recoveries_total", "brownout ladder steps back toward normal"), func(s Stats) int64 { return s.BrownoutRecoveries }},
	}

	activeSessions := r.NewGauge("ttmqo_gateway_active_sessions", "currently registered sessions")
	activeSubs := r.NewGauge("ttmqo_gateway_active_subscriptions", "currently live subscriptions")
	sharedQueries := r.NewGauge("ttmqo_gateway_shared_queries", "distinct admitted in-network queries")
	dedupRatio := r.NewGauge("ttmqo_gateway_dedup_ratio", "subscriptions per admitted network query")
	ringUpdates := r.NewGauge("ttmqo_gateway_resume_ring_updates", "updates parked in resume rings (occupancy)")
	walSize := r.NewGauge("ttmqo_wal_size_bytes", "current write-ahead-log size")
	virtualTime := r.NewGauge("ttmqo_sim_virtual_time_seconds", "elapsed virtual time")
	brownoutLevel := r.NewGauge("ttmqo_resilience_brownout_level", "brownout ladder rung: 0 normal, 1 no-replay, 2 batching, 3 shed")

	radioMessages := r.NewCounter("ttmqo_radio_messages_total", "messages put on the air (incl. retries)")
	radioRetrans := r.NewCounter("ttmqo_radio_retransmissions_total", "collision/loss retransmissions")
	radioDropped := r.NewCounter("ttmqo_radio_dropped_total", "messages dropped after retry exhaustion")
	radioClipped := r.NewCounter("ttmqo_radio_clipped_total", "metric updates addressed to out-of-range node IDs")
	radioBytes := r.NewCounter("ttmqo_radio_bytes_total", "payload bytes transmitted")
	avgTxPct := r.NewGauge("ttmqo_radio_avg_tx_pct", "average per-node transmission time, percent of elapsed virtual time")
	nodeEnergy := r.NewGauge("ttmqo_node_energy_joules", "energy spent per node under the mica2 model", "node")
	totalEnergy := r.NewGauge("ttmqo_energy_total_joules", "energy spent across all nodes")

	ttfr := r.NewHistogram("ttmqo_query_time_to_first_result_seconds",
		"virtual time from query admission to the first delivered result", TTFRBounds)
	queriesSeen := r.NewGauge("ttmqo_query_spans", "queries with a recorded lifecycle span")

	r.OnGather(func() {
		g := current()
		if g == nil {
			return
		}
		if g.Alive() {
			up.Gauge().Set(1)
		} else {
			up.Gauge().Set(0)
		}
		st, err := g.Stats()
		if err != nil {
			return
		}
		for _, c := range counters {
			c.fam.Counter().Set(float64(c.get(st)))
		}
		activeSessions.Gauge().Set(float64(st.ActiveSessions))
		activeSubs.Gauge().Set(float64(st.ActiveSubscriptions))
		sharedQueries.Gauge().Set(float64(st.SharedQueries))
		dedupRatio.Gauge().Set(st.DedupRatio())
		walSize.Gauge().Set(float64(st.WALSizeBytes))
		brownoutLevel.Gauge().Set(float64(st.BrownoutLevel))

		if status, err := g.Status(); err == nil {
			ringUpdates.Gauge().Set(float64(status.ResumeRingUpdates))
		}

		exp, err := g.Export()
		if err != nil {
			return
		}
		virtualTime.Gauge().Set(float64(exp.Metrics.SimulatedMS) / 1000)
		radioMessages.Counter().Set(float64(exp.Metrics.Messages))
		radioRetrans.Counter().Set(float64(exp.Metrics.Retransmissions))
		radioDropped.Counter().Set(float64(exp.Metrics.Dropped))
		radioClipped.Counter().Set(float64(exp.Metrics.Clipped))
		radioBytes.Counter().Set(float64(exp.Metrics.Bytes))
		avgTxPct.Gauge().Set(exp.Metrics.AvgTxPct)
		var total float64
		for _, n := range exp.Metrics.Nodes {
			nodeEnergy.Gauge(strconv.Itoa(n.ID)).Set(n.EnergyJ)
			total += n.EnergyJ
		}
		totalEnergy.Gauge().Set(total)

		// The histogram is rebuilt from the authoritative span log each
		// gather: spans gain first results over time, and after a crash the
		// recovered simulation's log replaces the lost one wholesale.
		spans := g.Spans().Snapshot()
		queriesSeen.Gauge().Set(float64(len(spans)))
		h := ttfr.Histogram()
		h.Reset()
		for _, s := range spans {
			if d, ok := s.TTFR(); ok {
				h.Observe(d.Seconds())
			}
		}
	})
}
