package obs

import (
	"encoding/json"
	"time"

	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// Study is one named row set inside a sweep export — typically one figure or
// extension study of the paper's evaluation.
type Study struct {
	Name string `json:"name"`
	// Rows is the study's result slice ([]Fig3Row, []AblationRow, ...). It is
	// typed any so one envelope serves every study; decoding uses the
	// concrete row type of the named study.
	Rows any `json:"rows"`
}

// Export is the JSON envelope for experiment sweeps: a manifest plus the
// rows of every study that ran. It deliberately excludes wall-clock timing
// so the bytes are identical at any parallelism setting.
type Export struct {
	Manifest Manifest `json:"manifest"`
	Studies  []Study  `json:"studies"`
}

// NodeMetrics is one node's final accounting.
type NodeMetrics struct {
	ID      int     `json:"id"`
	TxMS    float64 `json:"tx_ms"`
	RxMS    float64 `json:"rx_ms"`
	Samples int     `json:"samples"`
	EnergyJ float64 `json:"energy_j"`
}

// FinalMetrics is the end-of-run accounting of one simulation, flattened
// for export.
type FinalMetrics struct {
	SimulatedMS     int64          `json:"simulated_ms"`
	AvgTxPct        float64        `json:"avg_tx_pct"`
	Messages        int            `json:"messages"`
	Retransmissions int            `json:"retransmissions"`
	Dropped         int            `json:"dropped"`
	Clipped         int            `json:"clipped"`
	Bytes           int64          `json:"bytes"`
	ByKind          map[string]int `json:"by_kind"`
	LatencyMeanMS   float64        `json:"latency_mean_ms"`
	LatencyMaxMS    float64        `json:"latency_max_ms"`
	LatencyCount    int            `json:"latency_count"`
	Nodes           []NodeMetrics  `json:"nodes"`
}

// OptimizerState is the tier-1 optimizer's exported state.
type OptimizerState struct {
	UserQueries      int `json:"user_queries"`
	SyntheticQueries int `json:"synthetic_queries"`
}

// GatewayMetrics is the serving tier's exported counter set: the counter
// block every serving tier reports (session registrations,
// admission-control rejections, the semantic-dedup outcome, the
// fan-out/backpressure accounting) plus the derived dedup ratio. Every field
// is deterministic under the gateway's group-commit ordering.
type GatewayMetrics struct {
	tier.Counters
	// DedupRatio is subscriptions per admitted network query (> 1 means
	// the serving tier shared work).
	DedupRatio float64 `json:"dedup_ratio"`
}

// SpanSummary aggregates the per-query lifecycle spans of one run: how
// many queries were admitted, how many needed an install flood (vs. being
// covered by already-shared queries), and the time-to-first-result
// distribution in virtual milliseconds. All values are deterministic.
type SpanSummary struct {
	Queries      int `json:"queries"`
	Flooded      int `json:"flooded"`
	FirstResults int `json:"first_results"`
	Cancelled    int `json:"cancelled"`
	// Injected is the total synthetic-query injections across all
	// admissions (the tier-1 rewrite fan-out).
	Injected   int     `json:"injected"`
	TTFRMeanMS float64 `json:"ttfr_mean_ms"`
	TTFRP50MS  float64 `json:"ttfr_p50_ms"`
	TTFRP95MS  float64 `json:"ttfr_p95_ms"`
	TTFRMaxMS  float64 `json:"ttfr_max_ms"`
}

// SummarizeSpans reduces a span snapshot to its export summary; nil when
// no queries were recorded (so the JSON field is omitted).
func SummarizeSpans(spans []telemetry.QuerySpan) *SpanSummary {
	if len(spans) == 0 {
		return nil
	}
	sm := &SpanSummary{Queries: len(spans)}
	var q stats.Quantiles
	var sum, max float64
	for _, s := range spans {
		if s.Flooded {
			sm.Flooded++
		}
		if s.Cancelled {
			sm.Cancelled++
		}
		sm.Injected += s.Injected
		if ttfr, ok := s.TTFR(); ok {
			sm.FirstResults++
			ms := float64(ttfr) / float64(time.Millisecond)
			q.Add(ms)
			sum += ms
			if ms > max {
				max = ms
			}
		}
	}
	if sm.FirstResults > 0 {
		sm.TTFRMeanMS = sum / float64(sm.FirstResults)
		sm.TTFRP50MS = q.P50()
		sm.TTFRP95MS = q.P95()
		sm.TTFRMaxMS = max
	}
	return sm
}

// RunExport is the JSON envelope for a single simulation run: manifest,
// final metrics, optional optimizer state, optional gateway counters and
// optional time series.
type RunExport struct {
	Manifest  Manifest        `json:"manifest"`
	Metrics   FinalMetrics    `json:"metrics"`
	Optimizer *OptimizerState `json:"optimizer,omitempty"`
	Gateway   *GatewayMetrics `json:"gateway,omitempty"`
	Spans     *SpanSummary    `json:"spans,omitempty"`
	Series    *Series         `json:"series,omitempty"`
	// Traces is the causal-trace export collected from the serving
	// tiers' flight recorders (internal/tracing); chaos drills and the
	// serve bench assert on causal paths through it. Deterministic:
	// byte-identical at any parallelism for the same seed and command
	// sequence.
	Traces *tracing.Export `json:"traces,omitempty"`
}

// CollectFinal flattens a metrics collector into the export form. simTime is
// the elapsed virtual time; the energy model prices each node's activity.
func CollectFinal(c *metrics.Collector, simTime time.Duration, em metrics.EnergyModel) FinalMetrics {
	fm := FinalMetrics{
		SimulatedMS:     simTime.Milliseconds(),
		AvgTxPct:        c.AvgTransmissionTime(simTime) * 100,
		Messages:        c.Messages(),
		Retransmissions: c.Retransmissions(),
		Dropped:         c.Dropped(),
		Clipped:         c.Clipped(),
		Bytes:           c.Bytes(),
		ByKind:          make(map[string]int),
	}
	for _, k := range c.Kinds() {
		fm.ByKind[k] = c.MessagesOf(k)
	}
	if lat := c.Latency(); lat.N() > 0 {
		fm.LatencyMeanMS = lat.Mean() * 1000
		fm.LatencyMaxMS = lat.Max() * 1000
		fm.LatencyCount = lat.N()
	}
	for id := 0; id < c.Nodes(); id++ {
		nid := topology.NodeID(id)
		fm.Nodes = append(fm.Nodes, NodeMetrics{
			ID:      id,
			TxMS:    float64(c.TxTime(nid)) / float64(time.Millisecond),
			RxMS:    float64(c.RxTime(nid)) / float64(time.Millisecond),
			Samples: c.Samples(nid),
			EnergyJ: c.NodeEnergy(nid, em),
		})
	}
	return fm
}

func marshalIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
