package experiments

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Fig5Config parametrizes the Figure 5 study: transmission-time savings of
// TTMQO over the baseline as a function of predicate selectivity, for
// different aggregation/acquisition mixes.
type Fig5Config struct {
	Seed int64
	// Side of the deployment grid (default 4 — the paper's 16-node setup
	// with 8 concurrent queries).
	Side int
	// Duration of each run (default 10 minutes).
	Duration time.Duration
	// Selectivities swept (default 0.2 … 1.0 step 0.2).
	Selectivities []float64
	// AggFractions lists the mixes (default 0, 0.5, 1 — the paper's
	// "100% acquisition", "50/50" and "100% aggregation" series).
	AggFractions []float64
	// Runs averages each point over this many seeds (default 3).
	Runs int
	// Parallelism caps the worker pool running independent cells (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *Fig5Config) setDefaults() {
	if c.Side == 0 {
		c.Side = 4
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if len(c.Selectivities) == 0 {
		c.Selectivities = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if c.AggFractions == nil {
		c.AggFractions = []float64{0, 0.5, 1}
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
}

// Fig5Row is one point of a Figure 5 series.
type Fig5Row struct {
	AggFraction float64
	Selectivity float64
	// BaselineTxPct and TTMQOTxPct are average transmission times (%).
	BaselineTxPct float64
	TTMQOTxPct    float64
	// SavingsPct is the figure's y axis; SavingsStd is its sample standard
	// deviation across seeds.
	SavingsPct float64
	SavingsStd float64
}

// RunFigure5 sweeps predicate selectivity for three query mixes with 8
// concurrent queries (§4.3). Expected shape: savings grow with selectivity
// for every mix; 100 % acquisition with a shared epoch duration reaches
// ≈ 7/8 at selectivity 1 (and can exceed it — fewer messages mean fewer
// collision-induced retransmissions); the 100 % aggregation series is low
// until it jumps sharply at selectivity 1, where the predicates become
// identical and tier 1 can suddenly merge the aggregation queries.
func RunFigure5(cfg Fig5Config) ([]Fig5Row, error) {
	cfg.setDefaults()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	type point struct {
		frac, sel float64
	}
	var points []point
	for _, frac := range cfg.AggFractions {
		for _, sel := range cfg.Selectivities {
			points = append(points, point{frac, sel})
		}
	}
	// Each (mix, selectivity, seed) cell is an independent pair of
	// simulations; the flattened grid runs across CPUs and the per-point
	// averages are folded afterwards in fixed seed order, so the rows are
	// identical at any parallelism.
	type cell struct {
		pt  int
		run int
	}
	var cells []cell
	for p := range points {
		for r := 0; r < cfg.Runs; r++ {
			cells = append(cells, cell{p, r})
		}
	}
	type pair struct{ b, o float64 }
	pairs, err := sweep(cfg.Parallelism, cfg.Timing, cells, func(c cell) (pair, error) {
		pt := points[c.pt]
		seed := cfg.Seed + int64(c.run)*104729
		ws := workload.Selectivity(workload.SelectivityConfig{
			Seed:        seed,
			AggFraction: pt.frac,
			Selectivity: pt.sel,
			Nodes:       topo.Size(),
			// All series share one epoch duration: the paper's 7/8
			// bound for the acquisition series presumes it, and the
			// sharp aggregation jump at selectivity 1 requires the
			// tier-1 merge not to oversample at a shorter GCD.
			SameEpoch: true,
		})
		b, err := evaluate(topo, network.Baseline, seed, ws, cfg.Duration, nil)
		if err != nil {
			return pair{}, err
		}
		p := pair{b: b.AvgTransmissionTime()} // b may be collected while o runs
		o, err := evaluate(topo, network.TTMQO, seed, ws, cfg.Duration, nil)
		if err != nil {
			return pair{}, err
		}
		p.o = o.AvgTransmissionTime()
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, 0, len(points))
	for p, pt := range points {
		var base, opt, save stats.Series
		for r := 0; r < cfg.Runs; r++ {
			pr := pairs[p*cfg.Runs+r]
			base.Add(pr.b)
			opt.Add(pr.o)
			save.Add(metrics.Savings(pr.b, pr.o) * 100)
		}
		rows = append(rows, Fig5Row{
			AggFraction:   pt.frac,
			Selectivity:   pt.sel,
			BaselineTxPct: base.Mean() * 100,
			TTMQOTxPct:    opt.Mean() * 100,
			SavingsPct:    save.Mean(),
			SavingsStd:    save.Stddev(),
		})
	}
	return rows, nil
}
