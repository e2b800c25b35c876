package gateway

import (
	"strconv"

	"repro/internal/telemetry"
	"repro/internal/tier"
	"repro/internal/tracing"
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
// The session families are the kernel's (tier.RegisterMetrics); the rest
// are the gateway's policy. Counters mirror through monotonic Set
// (telemetry.Mirror). Everything here is a pure function of seed and
// committed command sequence — no wall clock — so scrapes at a fixed
// virtual time are identical across client scheduling and experiment
// parallelism.
func RegisterMetrics(r *telemetry.Registry, current func() *Gateway) {
	setSession := tier.RegisterMetrics(r, tracing.TierGateway)
	setPolicy := telemetry.Mirror(r, []telemetry.Row[Stats]{
		{Name: "ttmqo_gateway_rate_limited_total", Help: "subscribes rejected by the token bucket", Get: func(s Stats) int64 { return s.RateLimited }},
		{Name: "ttmqo_gateway_admit_errors_total", Help: "network admissions that failed", Get: func(s Stats) int64 { return s.AdmitErrors }},
		{Name: "ttmqo_gateway_admitted_total", Help: "queries posted into the network", Get: func(s Stats) int64 { return s.Admitted }},
		{Name: "ttmqo_gateway_cancelled_total", Help: "refcount-zero query cancellations", Get: func(s Stats) int64 { return s.Cancelled }},
		{Name: "ttmqo_gateway_epochs_total", Help: "result epochs from the simulation", Get: func(s Stats) int64 { return s.Epochs }},
		{Name: "ttmqo_gateway_recoveries_total", Help: "gateways rebuilt by WAL replay", Get: func(s Stats) int64 { return s.Recoveries }},
		{Name: "ttmqo_wal_appends_total", Help: "write-ahead-log records appended", Get: func(s Stats) int64 { return s.WALAppends }},
		{Name: "ttmqo_wal_compactions_total", Help: "write-ahead-log rewrites", Get: func(s Stats) int64 { return s.WALCompactions }},
		{Name: "ttmqo_resilience_shed_queue_total", Help: "subscribes shed at staging by the mailbox depth bound", Get: func(s Stats) int64 { return s.ShedQueue }},
		{Name: "ttmqo_resilience_shed_deadline_total", Help: "subscribes shed at commit: mailbox sojourn exceeded the deadline budget", Get: func(s Stats) int64 { return s.ShedDeadline }},
		{Name: "ttmqo_resilience_shed_subs_total", Help: "subscribes shed by the global concurrent-subscription cap", Get: func(s Stats) int64 { return s.ShedSubs }},
		{Name: "ttmqo_resilience_shed_brownout_total", Help: "subscribes shed while the brownout ladder sat at its shed rung", Get: func(s Stats) int64 { return s.ShedBrownout }},
		{Name: "ttmqo_resilience_brownout_escalations_total", Help: "brownout ladder steps toward heavier shedding", Get: func(s Stats) int64 { return s.BrownoutEscalations }},
		{Name: "ttmqo_resilience_brownout_recoveries_total", Help: "brownout ladder steps back toward normal", Get: func(s Stats) int64 { return s.BrownoutRecoveries }},
	})

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
		alive, session, st, ringed := g.metricsSnapshot()
		setSession(alive, session)
		setPolicy(st)
		sharedQueries.Gauge().Set(float64(st.SharedQueries))
		dedupRatio.Gauge().Set(st.DedupRatio())
		walSize.Gauge().Set(float64(st.WALSizeBytes))
		brownoutLevel.Gauge().Set(float64(st.BrownoutLevel))
		ringUpdates.Gauge().Set(float64(ringed))

		fm := g.FinalMetrics()
		virtualTime.Gauge().Set(float64(fm.SimulatedMS) / 1000)
		radioMessages.Counter().Set(float64(fm.Messages))
		radioRetrans.Counter().Set(float64(fm.Retransmissions))
		radioDropped.Counter().Set(float64(fm.Dropped))
		radioClipped.Counter().Set(float64(fm.Clipped))
		radioBytes.Counter().Set(float64(fm.Bytes))
		avgTxPct.Gauge().Set(fm.AvgTxPct)
		var total float64
		for _, n := range fm.Nodes {
			nodeEnergy.Gauge(strconv.Itoa(n.ID)).Set(n.EnergyJ)
			total += n.EnergyJ
		}
		totalEnergy.Gauge().Set(total)

		// The histogram is rebuilt from the authoritative lifecycle spans
		// each gather: queries gain first results over time, and after a
		// crash the recovered simulation's recorder replaces the lost one
		// wholesale.
		lives := tracing.Lifecycles(g.Spans().Snapshot())
		queriesSeen.Gauge().Set(float64(len(lives)))
		h := ttfr.Histogram()
		h.Reset()
		for _, l := range lives {
			if d, ok := l.TTFR(); ok {
				h.Observe(d.Seconds())
			}
		}
	})
}
