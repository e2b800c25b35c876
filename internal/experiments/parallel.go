package experiments

import (
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/topology"
	"repro/internal/workload"
)

// sweep fans the cells of one study out across the runner's worker pool and
// reassembles the rows in input order, so a parallel sweep is byte-identical
// to a serial one. parallelism <= 0 uses one worker per CPU; tm, when
// non-nil, receives the sweep's per-cell wall-clock timing.
func sweep[C, R any](parallelism int, tm *runner.Timing, cells []C, fn func(C) (R, error)) ([]R, error) {
	return runner.MapTimed(parallelism, len(cells), tm, func(i int) (R, error) {
		return fn(cells[i])
	})
}

// evaluate runs one cell of a packet-level study: workload ws under scheme on
// topo for d, over the contended evaluation radio and with results
// discarded. policy, when non-nil, replaces the scheme's tier-2 policy.
func evaluate(topo *topology.Topology, scheme network.Scheme, seed int64, ws []workload.TimedQuery,
	d time.Duration, policy *node.Policy) (*network.Simulation, error) {
	s, err := network.New(network.Config{
		Topo:           topo,
		Scheme:         scheme,
		Seed:           seed,
		Radio:          radio.Config{CollisionFactor: radio.DefaultCollisionFactor},
		PolicyOverride: policy,
		DiscardResults: true,
	})
	if err != nil {
		return nil, err
	}
	s.Schedule(ws)
	s.Run(d)
	return s, nil
}
