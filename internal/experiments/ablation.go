package experiments

import (
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

// AblationConfig parametrizes the tier-2 ablation study: the full TTMQO
// scheme with individual §3.2 mechanisms disabled, on WORKLOAD_C (the mixed
// workload where every mechanism has something to do).
type AblationConfig struct {
	Seed int64
	// Side of the grid (default 8 — the mechanisms matter more at size).
	Side int
	// Duration per run (default 10 minutes).
	Duration time.Duration
	// Workload name: A, B, C, or "moderate" (default) — a Figure 5-style
	// mixed workload at selectivity 0.4, where only part of the network
	// holds data and the routing/sleep mechanisms have room to act.
	Workload string
	// Parallelism caps the worker pool running independent variants (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *AblationConfig) setDefaults() {
	if c.Side == 0 {
		c.Side = 8
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if c.Workload == "" {
		c.Workload = "moderate"
	}
}

// AblationRow is one variant of the study.
type AblationRow struct {
	Variant string
	// AvgTxPct is the average transmission time (%).
	AvgTxPct float64
	// DeltaPct is the increase relative to full TTMQO (positive = the
	// removed mechanism was saving traffic).
	DeltaPct float64
	Messages int
}

// ablationVariants lists the studied policy reductions. Each removes one
// design choice DESIGN.md calls out.
func ablationVariants() []struct {
	name   string
	mutate func(*node.Policy)
} {
	return []struct {
		name   string
		mutate func(*node.Policy)
	}{
		{"full", func(*node.Policy) {}},
		{"-alignment", func(p *node.Policy) { p.AlignedEpochs = false }},
		{"-dag", func(p *node.Policy) { p.QueryAwareDAG = false; p.Multicast = false; p.Sleep = false }},
		{"-packing", func(p *node.Policy) { p.SharedMessages = false }},
		{"-multicast", func(p *node.Policy) { p.Multicast = false }},
		{"-sleep", func(p *node.Policy) { p.Sleep = false }},
		{"tier1-only", func(p *node.Policy) { *p = node.Policy{AlignedEpochs: true} }},
	}
}

// RunAblation measures the contribution of each tier-2 mechanism: full
// TTMQO versus TTMQO with one mechanism removed.
//
// Note the -alignment variant also changes result timing (epochs revert to
// injection phases), which is why tier 1 normally requires alignment; it is
// included to quantify the cost of losing shared sampling instants.
func RunAblation(cfg AblationConfig) ([]AblationRow, error) {
	cfg.setDefaults()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	var ws []workload.TimedQuery
	if cfg.Workload == "moderate" {
		ws = workload.Selectivity(workload.SelectivityConfig{
			Seed:        cfg.Seed,
			NumQueries:  8,
			AggFraction: 0.5,
			Selectivity: 0.4,
			Nodes:       topo.Size(),
		})
	} else {
		ws, err = workload.ByName(cfg.Workload)
		if err != nil {
			return nil, err
		}
	}
	variants := ablationVariants()
	rows, err := runner.MapTimed(cfg.Parallelism, len(variants), cfg.Timing, func(i int) (AblationRow, error) {
		policy := node.InNetwork()
		variants[i].mutate(&policy)
		s, err := evaluate(topo, network.TTMQO, cfg.Seed, ws, cfg.Duration, &policy)
		if err != nil {
			return AblationRow{}, err
		}
		return AblationRow{
			Variant:  variants[i].name,
			AvgTxPct: s.AvgTransmissionTime() * 100,
			Messages: s.Metrics().Messages(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var fullTx float64
	for _, r := range rows {
		if r.Variant == "full" {
			fullTx = r.AvgTxPct
		}
	}
	for i := range rows {
		if fullTx > 0 {
			rows[i].DeltaPct = (rows[i].AvgTxPct - fullTx) / fullTx * 100
		}
	}
	return rows, nil
}
