package main

// metricDef is one named metric: the rows of BENCHMARK.json's end_to_end
// and per_layer lists (bench_test.go holds the two in agreement).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a metric that repeats exactly for one (seed, rounds) in
	// fixed-work mode; -compare reports any difference as EXACT-MISMATCH.
	Exact bool
	// Moves says, for a per-layer metric, which end-to-end metric it should
	// move and where (README table).
	Moves string
}

// endToEnd is what a user of the serving stack sees, socket to socket.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "updates_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_mupdate", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "sub_ack_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ttfr_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ttfr_ms_p95", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "radio_airtime_ms_per_result", Unit: "ms", Better: "lower", Bound: 0.25, Exact: true},
	{Name: "radio_msgs_per_result", Unit: "count", Better: "lower", Bound: 0.25, Exact: true},
}

// perLayer is the ledger beside it, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "query.parse_us", Unit: "us", Better: "lower", Moves: "sub_ack_ms_p50 on churn; nothing elsewhere"},
	{Name: "core.insert_us", Unit: "us", Better: "lower", Moves: "sub_ack_ms_p50 on churn"},
	{Name: "core.terminate_us", Unit: "us", Better: "lower", Moves: "sub_ack_ms_p50 on churn"},
	{Name: "core.synthetic_per_user", Unit: "ratio", Better: "lower", Exact: true, Moves: "radio_airtime_ms_per_result everywhere"},
	// Not exact: the optimizer sums benefits in map order, so the last ulp varies.
	{Name: "core.predicted_saving_pct", Unit: "%", Better: "higher", Moves: "radio_airtime_ms_per_result everywhere"},
	{Name: "network.round_ms", Unit: "ms", Better: "lower", Moves: "updates_per_s and cpu_s_per_mupdate on sim_heavy (~all) and full_stack (~half); <5% on fanout_heavy"},
	{Name: "network.events_per_round", Unit: "count", Better: "lower", Exact: true, Moves: "as network.round_ms"},
	{Name: "network.events_per_s", Unit: "1/s", Better: "higher", Moves: "as network.round_ms"},
	{Name: "network.allocs_per_round", Unit: "count", Better: "lower", Moves: "cpu_s_per_mupdate, peak_rss_mb on sim_heavy"},
	{Name: "network.airtime_savings_pct", Unit: "%", Better: "higher", Exact: true, Moves: "radio_airtime_ms_per_result (Fig. 3's quantity on this workload)"},
	{Name: "radio.msgs", Unit: "count", Better: "lower", Moves: "radio_msgs_per_result"},
	{Name: "radio.retransmissions", Unit: "count", Better: "lower", Moves: "radio_msgs_per_result"},
	{Name: "radio.airtime_ms", Unit: "ms", Better: "lower", Moves: "radio_airtime_ms_per_result"},
	{Name: "radio.bytes", Unit: "count", Better: "lower", Moves: "radio_airtime_ms_per_result"},
	{Name: "gateway.advance_ms_p50", Unit: "ms", Better: "lower", Moves: "updates_per_s on sim_heavy"},
	{Name: "gateway.advance_ms_p95", Unit: "ms", Better: "lower", Moves: "ttfr_ms_p95 on the single-gateway workloads"},
	{Name: "gateway.advance_share", Unit: "ratio", Better: "lower", Moves: "updates_per_s: the share of wall inside the top-level Advance on any stack (~1 on sim_heavy, small on fanout_heavy)"},
	{Name: "gateway.advance_self_ms", Unit: "ms", Better: "lower", Moves: "updates_per_s on fanout_heavy (an estimate: advance_ms_p50 - network.round_ms)"},
	{Name: "gateway.subscribe_commit_ms_p50", Unit: "ms", Better: "lower", Moves: "sub_ack_ms_p50, updates_per_s on churn: subscribe sent -> committed by the top-level backend (handler read, parse, plan, admit)"},
	{Name: "gateway.delivery_lag_ms_p50", Unit: "ms", Better: "lower", Moves: "updates_per_s on fanout_heavy; ttfr_ms_* everywhere"},
	{Name: "gateway.delivery_lag_ms_p95", Unit: "ms", Better: "lower", Moves: "ttfr_ms_p95 everywhere"},
	{Name: "gateway.stall_share", Unit: "ratio", Better: "lower", Moves: "updates_per_s on fanout_heavy"},
	{Name: "gateway.dedup_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "radio_airtime_ms_per_result"},
	{Name: "gateway.canonical_key_us", Unit: "us", Better: "lower", Moves: "sub_ack_ms_p50 on churn"},
	{Name: "gateway.dropped", Unit: "count", Better: "lower", Exact: true, Moves: "failed (must stay 0)"},
	{Name: "gateway.evicted", Unit: "count", Better: "lower", Exact: true, Moves: "failed (must stay 0)"},
	{Name: "gateway.ttfr_virtual_ms_p50", Unit: "ms", Better: "lower", Exact: true, Moves: "ttfr_ms_* (the latency a paced deployment sees; <= 0 on a cache replay)"},
	{Name: "federation.advance_ms_p50", Unit: "ms", Better: "lower", Moves: "updates_per_s on full_stack"},
	{Name: "federation.merge_latency_us", Unit: "us", Better: "lower", Moves: "updates_per_s on full_stack"},
	{Name: "federation.partials_per_merged_epoch", Unit: "ratio", Better: "lower", Exact: true, Moves: "updates_per_s on full_stack"},
	{Name: "federation.shard_skew", Unit: "ratio", Better: "lower", Exact: true, Moves: "updates_per_s on full_stack (the slowest shard sets the round)"},
	{Name: "federation.subscribe_us", Unit: "us", Better: "lower", Moves: "sub_ack_ms_p50 on churn"},
	{Name: "share.advance_self_ms_p50", Unit: "ms", Better: "lower", Moves: "updates_per_s on full_stack"},
	{Name: "share.fragment_reuse_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "radio_airtime_ms_per_result on full_stack and churn"},
	{Name: "share.cache_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "ttfr_ms_* and gateway.ttfr_virtual_ms_p50 on full_stack and churn"},
	{Name: "share.upstream_admits_per_subscribe", Unit: "ratio", Better: "lower", Exact: true, Moves: "sub_ack_ms_p50 and radio_airtime_ms_per_result on churn"},
	{Name: "share.ack_rounds_p50", Unit: "count", Better: "lower", Moves: "sub_ack_ms_p50"},
	{Name: "share.ttfr_rounds_p50", Unit: "count", Better: "lower", Exact: true, Moves: "ttfr_ms_*"},
	{Name: "bench.round_ms", Unit: "ms", Better: "lower", Moves: "nothing: mean wall per round of the traced run, the total the per-round layer times are shares of"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "nothing: the cost of the traced run itself"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher", Moves: "nothing: the calibration factor of the traced run (raw time = reference time / host_speed)"},
}

// endToEndMetrics derives the user-visible numbers from an untraced run.
func endToEndMetrics(res *runResult, setupS float64) map[string]float64 {
	frames := float64(res.frames)
	perRound := ratio(frames, float64(res.rounds))
	return map[string]float64{
		"setup_s": setupS,
		// Median block round rate (in reference time, see calib.go) times
		// mean frames per round: a frame rate that a single slow block (a
		// neighbour's burst, a GC cycle) does not move.
		"updates_per_s":               res.roundRate * perRound,
		"cpu_s_per_mupdate":           ratio(res.cpuRefS, frames) * 1e6,
		"peak_rss_mb":                 peakRSSMB(),
		"sub_ack_ms_p50":              percentile(res.ackMS, 50),
		"ttfr_ms_p50":                 percentile(res.ttfrMS, 50),
		"ttfr_ms_p95":                 percentile(res.ttfrMS, 95),
		"radio_airtime_ms_per_result": ratio(ms(res.radio.airtime), frames),
		"radio_msgs_per_result":       ratio(float64(res.radio.msgs), frames),
	}
}
