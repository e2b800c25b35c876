package experiments

import (
	"io"
	"time"

	"repro/internal/network"
	"repro/internal/runner"
)

// Study is one named row set inside a sweep export — typically one figure or
// extension study of the paper's evaluation.
type Study struct {
	Name string `json:"name"`
	// Rows is the study's result slice ([]Fig3Row, []AblationRow, ...). It is
	// typed any so one envelope serves every study; decoding uses the
	// concrete row type of the named study.
	Rows any `json:"rows"`
	// Timing is the study's sweep wall clock when Run produced it; it stays
	// out of the JSON, so exports are identical at any parallelism.
	Timing runner.Timing `json:"-"`
	// entry is the registry entry that ran the study; Report.Markdown
	// renders through it, so it is set on every study Run returns.
	entry *entry
}

// Export is the JSON envelope for experiment sweeps: a manifest plus the
// rows of every study that ran. It deliberately excludes wall-clock timing
// so the bytes are identical at any parallelism setting.
type Export struct {
	Manifest network.Manifest `json:"manifest"`
	Studies  []Study          `json:"studies"`
}

// SweepManifest builds the manifest attached to an exported sweep: study
// name, base seed, per-run duration and runs-per-point, hashed. It carries
// no wall-clock state, so exports are byte-identical across parallelism
// settings and repeated runs.
func SweepManifest(study string, seed int64, dur time.Duration, runs int) network.Manifest {
	m := network.NewManifest(study)
	m.Seed = seed
	m.DurationMS = dur.Milliseconds()
	m.Runs = runs
	return m.Hashed()
}

// WriteSweepJSON exports one or more studies' result rows under a manifest.
func WriteSweepJSON(w io.Writer, m network.Manifest, studies ...Study) error {
	return network.WriteJSON(w, Export{Manifest: m, Studies: studies})
}

// Export bundles the report's studies into the JSON envelope, under a
// manifest named for the selection that ran. Timings and Elapsed stay out:
// they are wall-clock measurements, and exported results must be identical
// at any parallelism setting.
func (r *Report) Export() Export {
	m := SweepManifest(r.Fig, r.Config.Seed, r.Config.Duration, r.Config.Runs)
	return Export{Manifest: m, Studies: r.Studies}
}

// WriteJSON exports the report (manifest + the rows of every study that
// ran) to w.
func (r *Report) WriteJSON(w io.Writer) error {
	return network.WriteJSON(w, r.Export())
}
