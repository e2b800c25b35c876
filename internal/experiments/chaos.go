package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/chaos"
	"repro/internal/runner"
)

// ChaosConfig parametrizes the chaos study: the full serving stack —
// simulation, gateway with WAL crash recovery, reconnecting subscriber
// sessions — is driven through a set of scripted fault scenarios and the
// user-visible damage is measured: result completeness against the
// deterministic field's ground truth, duplicate deliveries, sequence gaps,
// and every invariant violation the harness detected. Expected shape:
// churn, bursts and partitions cost completeness but never correctness
// (no duplicates, no gaps), and gateway crashes cost nothing at all —
// recovery replays the WAL and the resume rings redeliver what the crash
// stranded in flight.
type ChaosConfig struct {
	Seed int64
	// Parallelism caps the worker pool running independent scenarios (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

// ChaosRow is one scenario's outcome.
type ChaosRow struct {
	Scenario string `json:"scenario"`
	// FaultEvents is the number of scheduled fault steps; Crashes the
	// gateway crash/recover cycles among them.
	FaultEvents int `json:"fault_events"`
	Crashes     int `json:"crashes"`
	// Reconnects counts client re-attachments, Resumes the streams they
	// picked back up.
	Reconnects int64 `json:"reconnects"`
	Resumes    int64 `json:"resumes"`
	// Updates is the fresh client-side deliveries; Completeness is
	// delivered rows over the deterministic field's ground truth.
	Updates      int64   `json:"updates"`
	Completeness float64 `json:"completeness"`
	// Duplicates and Gaps are the exactly-once violations (both should be
	// zero everywhere; gaps may be bounded by the scenario).
	Duplicates int64 `json:"duplicates"`
	Gaps       int64 `json:"gaps"`
	// Violations lists every invariant breach the harness detected.
	Violations []string `json:"violations,omitempty"`
}

// RunChaos sweeps every builtin fault scenario (chaos.BuiltinNames) on the
// script drill's own grid and clients (4 × 4, 4 sessions). Each scenario
// is an independent cell with its own WAL file, so the sweep parallelizes
// like every other study — and, like them, produces byte-identical rows at
// any parallelism.
func RunChaos(cfg ChaosConfig) ([]ChaosRow, error) {
	dir, err := os.MkdirTemp("", "ttmqo-chaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	type cell struct {
		i    int
		name string
	}
	names := chaos.BuiltinNames()
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i] = cell{i: i, name: name}
	}
	return sweep(cfg.Parallelism, cfg.Timing, cells, func(c cell) (ChaosRow, error) {
		sc, err := chaos.Builtin(c.name)
		if err != nil {
			return ChaosRow{}, err
		}
		rep, err := chaos.Run(chaos.ScriptDrill, chaos.Config{
			Script: sc,
			Seed:   cfg.Seed,
			WALDir: filepath.Join(dir, fmt.Sprintf("cell-%02d", c.i)),
		})
		if err != nil {
			return ChaosRow{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		return ChaosRow{
			Scenario:     rep.Scenario,
			FaultEvents:  rep.FaultEvents,
			Crashes:      rep.Crashes,
			Reconnects:   rep.Reconnects,
			Resumes:      rep.Gateway.Resumes,
			Updates:      rep.Updates,
			Completeness: rep.Completeness,
			Duplicates:   rep.Duplicates,
			Gaps:         rep.Gaps,
			Violations:   rep.Violations,
		}, nil
	})
}
