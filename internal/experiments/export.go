package experiments

import (
	"io"
	"time"

	"repro/internal/network"
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

// Export bundles every study of the report into the JSON envelope. Timings
// and Elapsed are deliberately excluded: they are wall-clock measurements,
// and exported results must be identical at any parallelism setting.
func (r *Report) Export() Export {
	m := SweepManifest("all", r.Config.Seed, r.Config.Duration, r.Config.Runs)
	return Export{Manifest: m, Studies: []Study{
		{Name: "figure 2", Rows: r.Fig2},
		{Name: "figure 3", Rows: r.Fig3},
		{Name: "figure 4a", Rows: r.Fig4A},
		{Name: "figure 4b", Rows: r.Fig4B},
		{Name: "figure 4c", Rows: r.Fig4C},
		{Name: "figure 5", Rows: r.Fig5},
		{Name: "ablation", Rows: r.Ablation},
		{Name: "reliability", Rows: r.Reliability},
		{Name: "chaos", Rows: r.Chaos},
		{Name: "lifetime", Rows: r.Lifetime},
		{Name: "scaling", Rows: r.Scaling},
	}}
}

// WriteJSON exports the report (manifest + all study rows) to w.
func (r *Report) WriteJSON(w io.Writer) error {
	return network.WriteJSON(w, r.Export())
}
