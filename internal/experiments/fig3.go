package experiments

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Fig3Config parametrizes the Figure 3 study.
type Fig3Config struct {
	// Seed drives field, jitter and collisions.
	Seed int64
	// Duration is the simulated interval per run (default 10 minutes).
	Duration time.Duration
	// Sides lists grid side lengths (default {4, 8} — the paper's 16 and 64
	// node networks).
	Sides []int
	// Workloads lists the Figure 3 workload names (default A, B, C).
	Workloads []string
	// Parallelism caps the worker pool running independent cells (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *Fig3Config) setDefaults() {
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if len(c.Sides) == 0 {
		c.Sides = []int{4, 8}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []string{"A", "B", "C"}
	}
}

// Fig3Row is one bar of Figure 3.
type Fig3Row struct {
	Workload string
	Nodes    int
	Scheme   network.Scheme
	// AvgTxPct is the average transmission time as a percentage (the
	// figure's y axis).
	AvgTxPct float64
	// SavingsPct is the reduction relative to the baseline bar of the same
	// workload and network size.
	SavingsPct float64
	// Messages and Retransmissions give the underlying counts.
	Messages        int
	Retransmissions int
}

// RunFigure3 measures the average transmission time of each scheme under
// the three static workloads on 16- and 64-node grids (§4.2). Expected
// shape: for WORKLOAD_A both single tiers achieve similar large savings
// (the paper reports ≈61 % at 16 nodes and ≈75 % at 64); for WORKLOAD_B
// in-network optimization beats base-station optimization, and its margin
// grows with network size; for WORKLOAD_C the combined TTMQO beats either
// tier alone (up to ≈82 %).
func RunFigure3(cfg Fig3Config) ([]Fig3Row, error) {
	cfg.setDefaults()
	type cell struct {
		wname  string
		side   int
		scheme network.Scheme
	}
	var cells []cell
	for _, wname := range cfg.Workloads {
		if _, err := workload.ByName(wname); err != nil {
			return nil, err
		}
		for _, side := range cfg.Sides {
			for _, scheme := range network.AllSchemes() {
				cells = append(cells, cell{wname, side, scheme})
			}
		}
	}
	// Every cell is an independent simulation; run the grid across CPUs and
	// fill in savings against the baseline cell afterwards.
	rows, err := sweep(cfg.Parallelism, cfg.Timing, cells, func(c cell) (Fig3Row, error) {
		ws, err := workload.ByName(c.wname)
		if err != nil {
			return Fig3Row{}, err
		}
		topo, err := topology.PaperGrid(c.side)
		if err != nil {
			return Fig3Row{}, err
		}
		s, err := evaluate(topo, c.scheme, cfg.Seed, ws, cfg.Duration, nil)
		if err != nil {
			return Fig3Row{}, err
		}
		return Fig3Row{
			Workload:        c.wname,
			Nodes:           topo.Size(),
			Scheme:          c.scheme,
			AvgTxPct:        s.AvgTransmissionTime() * 100,
			Messages:        s.Metrics().Messages(),
			Retransmissions: s.Metrics().Retransmissions(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	baseline := make(map[[2]any]float64, len(rows)/4)
	for _, r := range rows {
		if r.Scheme == network.Baseline {
			baseline[[2]any{r.Workload, r.Nodes}] = r.AvgTxPct
		}
	}
	for i := range rows {
		rows[i].SavingsPct = metrics.Savings(baseline[[2]any{rows[i].Workload, rows[i].Nodes}], rows[i].AvgTxPct) * 100
	}
	return rows, nil
}
