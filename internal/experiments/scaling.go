package experiments

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// ScalingConfig parametrizes the network-size scaling study — an extension
// of Figure 3's two sizes (16 and 64 nodes) to a full curve.
type ScalingConfig struct {
	Seed int64
	// Sides lists the grid side lengths swept (default 4, 6, 8, 10, 12 —
	// 16 to 144 nodes).
	Sides []int
	// Duration per run (default 10 minutes).
	Duration time.Duration
	// Workload name (default A — the workload both tiers share).
	Workload string
	// Parallelism caps the worker pool running independent cells (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *ScalingConfig) setDefaults() {
	if len(c.Sides) == 0 {
		c.Sides = []int{4, 6, 8, 10, 12}
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if c.Workload == "" {
		c.Workload = "A"
	}
}

// ScalingRow is one (size, scheme) cell.
type ScalingRow struct {
	Nodes  int
	Scheme network.Scheme
	// AvgTxPct is the average transmission time (%).
	AvgTxPct float64
	// SavingsPct is the reduction versus the baseline at the same size.
	SavingsPct float64
	// MeanLatencyMS is the mean result-delivery latency.
	MeanLatencyMS float64
	Messages      int
	// TTFRP50MS / TTFRP95MS summarize the per-query lifecycle spans: the
	// virtual time from admission to first delivered result (median and
	// 95th percentile, milliseconds). Zero when no query produced results.
	TTFRP50MS float64
	TTFRP95MS float64
}

// RunScaling measures how the baseline's and TTMQO's transmission time and
// result latency evolve with network size. Expected shape: the baseline's
// cost grows superlinearly (more relaying, more contention, more
// retransmissions), TTMQO's much slower — so the savings percentage grows
// with size, extending the Figure 3 observation into a curve.
func RunScaling(cfg ScalingConfig) ([]ScalingRow, error) {
	cfg.setDefaults()
	ws, err := workload.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	type cell struct {
		side   int
		scheme network.Scheme
	}
	var cells []cell
	for _, side := range cfg.Sides {
		for _, scheme := range []network.Scheme{network.Baseline, network.TTMQO} {
			cells = append(cells, cell{side, scheme})
		}
	}
	rows, err := sweep(cfg.Parallelism, cfg.Timing, cells, func(c cell) (ScalingRow, error) {
		topo, err := topology.PaperGrid(c.side)
		if err != nil {
			return ScalingRow{}, err
		}
		s, err := evaluate(topo, c.scheme, cfg.Seed, ws, cfg.Duration, nil)
		if err != nil {
			return ScalingRow{}, err
		}
		row := ScalingRow{
			Nodes:         topo.Size(),
			Scheme:        c.scheme,
			AvgTxPct:      s.AvgTransmissionTime() * 100,
			MeanLatencyMS: s.Metrics().Latency().Mean() * 1000,
			Messages:      s.Metrics().Messages(),
		}
		if sm := tracing.SummarizeSpans(s.Spans().Snapshot()); sm != nil {
			row.TTFRP50MS = sm.TTFRP50MS
			row.TTFRP95MS = sm.TTFRP95MS
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	baseline := make(map[int]float64, len(cfg.Sides))
	for _, r := range rows {
		if r.Scheme == network.Baseline {
			baseline[r.Nodes] = r.AvgTxPct
		}
	}
	for i := range rows {
		rows[i].SavingsPct = metrics.Savings(baseline[rows[i].Nodes], rows[i].AvgTxPct) * 100
	}
	return rows, nil
}
