package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/runner"
	"repro/internal/topology"
)

// ReliabilityConfig parametrizes the failure study — the paper's stated
// future work ("node failures and unreliable wireless transmissions ...
// quality-of-service driven multi-query optimization", §5), built as an
// extension: node outages are injected and the user-visible result
// completeness of the baseline and TTMQO is measured against ground truth
// recomputed from the deterministic field.
type ReliabilityConfig struct {
	Seed int64
	// Side of the grid (default 6 — 36 nodes).
	Side int
	// Duration per run (default 10 minutes).
	Duration time.Duration
	// MTBFs lists the mean-time-between-failures points of the sweep; zero
	// entries mean "no failures" (default ∞, 5m, 2m, 1m).
	MTBFs []time.Duration
	// MTTR is the mean outage duration (default 30 s).
	MTTR time.Duration
	// Parallelism caps the worker pool running independent cells (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *ReliabilityConfig) setDefaults() {
	if c.Side == 0 {
		c.Side = 6
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if len(c.MTBFs) == 0 {
		c.MTBFs = []time.Duration{0, 5 * time.Minute, 2 * time.Minute, time.Minute}
	}
	if c.MTTR == 0 {
		c.MTTR = 30 * time.Second
	}
}

// ReliabilityRow is one (scheme, MTBF) cell of the study.
type ReliabilityRow struct {
	Scheme network.Scheme
	// MTBF of the injected failures (0 = none).
	MTBF time.Duration
	// Completeness is delivered rows / ideally expected rows (all nodes
	// alive), in [0, 1].
	Completeness float64
	// Failures is the number of node outages that occurred.
	Failures int
	// AvgTxPct is the radio metric, for cost context.
	AvgTxPct float64
}

// RunReliability sweeps failure rates for the baseline and TTMQO, measuring
// acquisition-result completeness against the deterministic field's ground
// truth. Expected shape: completeness degrades gracefully with failure
// rate; the optimized scheme is not more fragile than the baseline even
// though each shared message now carries several queries' data.
func RunReliability(cfg ReliabilityConfig) ([]ReliabilityRow, error) {
	cfg.setDefaults()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	// Two overlapping acquisition queries; TTMQO merges them.
	mkQueries := func() []query.Query {
		q1 := query.MustParse("SELECT nodeid, light WHERE light >= 100 AND light <= 900 EPOCH DURATION 4096")
		q1.ID = 1
		q2 := query.MustParse("SELECT nodeid, light WHERE light >= 150 AND light <= 850 EPOCH DURATION 8192")
		q2.ID = 2
		return []query.Query{q1, q2}
	}

	type cell struct {
		scheme network.Scheme
		mtbf   time.Duration
	}
	var cells []cell
	for _, scheme := range []network.Scheme{network.Baseline, network.TTMQO} {
		for _, mtbf := range cfg.MTBFs {
			cells = append(cells, cell{scheme, mtbf})
		}
	}
	return sweep(cfg.Parallelism, cfg.Timing, cells, func(c cell) (ReliabilityRow, error) {
		scheme, mtbf := c.scheme, c.mtbf
		src := field.New(topo, field.Config{Seed: cfg.Seed})
		s, err := network.New(network.Config{
			Topo:   topo,
			Scheme: scheme,
			Seed:   cfg.Seed,
			Source: src,
			Radio:  radio.Config{CollisionFactor: radio.DefaultCollisionFactor},
			Failures: network.FailureConfig{
				MTBF: mtbf,
				MTTR: cfg.MTTR,
			},
		})
		if err != nil {
			return ReliabilityRow{}, err
		}
		queries := mkQueries()
		for _, q := range queries {
			s.PostAt(0, q)
		}

		// Tally delivered vs expected rows per delivered epoch; the
		// deterministic field gives the all-nodes-alive ground truth.
		var delivered, expected int
		s.Results().OnRows = func(ur core.UserRows) {
			var uq query.Query
			for _, q := range queries {
				if q.ID == ur.QueryID {
					uq = q
				}
			}
			delivered += len(ur.Rows)
			for i := 1; i < topo.Size(); i++ {
				var vals field.Values
				vals.Set(field.AttrLight, src.Reading(topology.NodeID(i), field.AttrLight, ur.Time))
				if uq.MatchesValues(&vals) {
					expected++
				}
			}
		}
		s.Run(cfg.Duration)

		comp := 1.0
		if expected > 0 {
			comp = float64(delivered) / float64(expected)
		}
		return ReliabilityRow{
			Scheme:       scheme,
			MTBF:         mtbf,
			Completeness: comp,
			Failures:     s.Failures(),
			AvgTxPct:     s.AvgTransmissionTime() * 100,
		}, nil
	})
}
