package experiments

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

// LifetimeConfig parametrizes the network-lifetime study: the classic WSN
// metric (time until the busiest node's battery dies) under each scheme.
// The paper argues its savings "can save much bandwidth and energy" (§4.2);
// this study quantifies the energy half of that claim with the
// metrics.EnergyModel.
type LifetimeConfig struct {
	Seed int64
	// Side of the grid (default 8).
	Side int
	// Duration measured before extrapolating (default 10 minutes).
	Duration time.Duration
	// Workload name (default C).
	Workload string
	// Energy model; zero values take mica2-flavoured defaults.
	Energy metrics.EnergyModel
	// Parallelism caps the worker pool running independent schemes (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *LifetimeConfig) setDefaults() {
	if c.Side == 0 {
		c.Side = 8
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if c.Workload == "" {
		c.Workload = "C"
	}
}

// LifetimeRow is one scheme's energy outcome.
type LifetimeRow struct {
	Scheme network.Scheme
	// TotalJ is the network-wide energy spent during the measured interval.
	TotalJ float64
	// Lifetime is the extrapolated time until the busiest sensor node
	// exhausts its battery.
	Lifetime time.Duration
	// GainPct is the lifetime extension over the baseline.
	GainPct float64
}

// RunLifetime measures energy consumption and extrapolated network lifetime
// for all four schemes under one workload. Expected shape: lifetime
// ordering mirrors the transmission-time ordering of Figure 3 — radio work
// dominates the energy budget, so sharing extends lifetime.
func RunLifetime(cfg LifetimeConfig) ([]LifetimeRow, error) {
	cfg.setDefaults()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	ws, err := workload.ByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	schemes := network.AllSchemes()
	rows, err := sweep(cfg.Parallelism, cfg.Timing, schemes, func(scheme network.Scheme) (LifetimeRow, error) {
		s, err := evaluate(topo, scheme, cfg.Seed, ws, cfg.Duration, nil)
		if err != nil {
			return LifetimeRow{}, err
		}
		return LifetimeRow{
			Scheme:   scheme,
			TotalJ:   s.Metrics().TotalEnergy(cfg.Energy),
			Lifetime: s.Metrics().NetworkLifetime(cfg.Duration, cfg.Energy),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var baseline time.Duration
	for _, r := range rows {
		if r.Scheme == network.Baseline {
			baseline = r.Lifetime
		}
	}
	for i := range rows {
		if baseline > 0 {
			rows[i].GainPct = (rows[i].Lifetime.Seconds() - baseline.Seconds()) / baseline.Seconds() * 100
		}
	}
	return rows, nil
}
