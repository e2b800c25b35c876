package network

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// Everything exported here is a pure function of the run's inputs — no wall
// clock, no map iteration order — so exported artifacts are byte-identical
// across parallelism settings and across repeated runs with the same seed.

// Version identifies the tool revision stamped into every manifest. Bump it
// when the simulator's observable behaviour changes, so archived exports
// remain attributable.
const Version = "0.2.0"

// Manifest identifies one run or sweep: what was simulated, under which
// scheme and seed, on which topology, by which tool version. It is attached
// to every JSON export so results stay self-describing after they leave the
// repository. Manifests carry no wall-clock timestamps: two runs of the
// same configuration produce byte-identical manifests.
type Manifest struct {
	// Tool and Version identify the producing binary.
	Tool    string `json:"tool"`
	Version string `json:"version"`
	// Study names the experiment sweep ("figure 3", "ablation", ...) or the
	// single-run producer ("sim", "shell", "gateway").
	Study string `json:"study,omitempty"`
	// Scheme is the optimization scheme name (empty for multi-scheme sweeps).
	Scheme string `json:"scheme,omitempty"`
	// Seed is the base random seed of the run or sweep.
	Seed int64 `json:"seed"`
	// Nodes is the deployment size including the base station (0 when the
	// sweep spans several sizes).
	Nodes int `json:"nodes,omitempty"`
	// Topology summarizes the deployment shape, e.g. "grid side 4, 16 nodes,
	// depth 3, range 50ft".
	Topology string `json:"topology,omitempty"`
	// Workload names the query workload ("A", "B", "C", "random", a file).
	Workload string `json:"workload,omitempty"`
	// Chaos names the fault-injection scenario the run was driven under
	// (empty for fault-free runs).
	Chaos string `json:"chaos,omitempty"`
	// Alpha is the tier-1 termination parameter, when fixed.
	Alpha float64 `json:"alpha,omitempty"`
	// DurationMS is the simulated virtual time per run, in milliseconds.
	DurationMS int64 `json:"duration_ms,omitempty"`
	// Runs is the number of seeds averaged per stochastic point.
	Runs int `json:"runs,omitempty"`
	// ConfigHash fingerprints every field above (FNV-1a 64); two manifests
	// with equal hashes describe the same configuration.
	ConfigHash string `json:"config_hash"`
}

// NewManifest returns a manifest with the tool identity filled in.
func NewManifest(study string) Manifest {
	return Manifest{Tool: "ttmqo", Version: Version, Study: study}
}

// Hashed returns a copy with ConfigHash computed over the canonical
// rendering of every other field.
func (m Manifest) Hashed() Manifest {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%s|%d|%d|%s|%s|%s|%g|%d|%d",
		m.Tool, m.Version, m.Study, m.Scheme, m.Seed, m.Nodes,
		m.Topology, m.Workload, m.Chaos, m.Alpha, m.DurationMS, m.Runs)
	m.ConfigHash = fmt.Sprintf("%016x", h.Sum64())
	return m
}

// WriteJSON marshals v as indented JSON followed by a newline. The encoding
// is deterministic: struct fields render in declaration order and map keys
// are sorted, so identical values yield identical bytes.
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// NodeMetrics is one node's final accounting.
type NodeMetrics struct {
	ID      int     `json:"id"`
	TxMS    float64 `json:"tx_ms"`
	RxMS    float64 `json:"rx_ms"`
	Samples int     `json:"samples"`
	EnergyJ float64 `json:"energy_j"`
}

// FinalMetrics is the end-of-run accounting of one simulation, flattened
// for export.
type FinalMetrics struct {
	SimulatedMS     int64          `json:"simulated_ms"`
	AvgTxPct        float64        `json:"avg_tx_pct"`
	Messages        int            `json:"messages"`
	Retransmissions int            `json:"retransmissions"`
	Dropped         int            `json:"dropped"`
	Clipped         int            `json:"clipped"`
	Bytes           int64          `json:"bytes"`
	ByKind          map[string]int `json:"by_kind"`
	LatencyMeanMS   float64        `json:"latency_mean_ms"`
	LatencyMaxMS    float64        `json:"latency_max_ms"`
	LatencyCount    int            `json:"latency_count"`
	Nodes           []NodeMetrics  `json:"nodes"`
}

// OptimizerState is the tier-1 optimizer's exported state.
type OptimizerState struct {
	UserQueries      int `json:"user_queries"`
	SyntheticQueries int `json:"synthetic_queries"`
}

// RunExport is the JSON envelope for a single simulation run: manifest,
// final metrics, optional optimizer state, optional gateway counters and
// optional time series.
type RunExport struct {
	Manifest  Manifest             `json:"manifest"`
	Metrics   FinalMetrics         `json:"metrics"`
	Optimizer *OptimizerState      `json:"optimizer,omitempty"`
	Gateway   *tier.GatewayMetrics `json:"gateway,omitempty"`
	Spans     *tracing.SpanSummary `json:"spans,omitempty"`
	Series    *Series              `json:"series,omitempty"`
	// Traces is the causal-trace export collected from the serving
	// tiers' flight recorders (internal/tracing); chaos drills and the
	// serve bench assert on causal paths through it. Deterministic:
	// byte-identical at any parallelism for the same seed and command
	// sequence.
	Traces *tracing.Export `json:"traces,omitempty"`
}

// CollectFinal flattens a metrics collector into the export form. simTime is
// the elapsed virtual time; the energy model prices each node's activity.
func CollectFinal(c *metrics.Collector, simTime time.Duration, em metrics.EnergyModel) FinalMetrics {
	fm := FinalMetrics{
		SimulatedMS:     simTime.Milliseconds(),
		AvgTxPct:        c.AvgTransmissionTime(simTime) * 100,
		Messages:        c.Messages(),
		Retransmissions: c.Retransmissions(),
		Dropped:         c.Dropped(),
		Clipped:         c.Clipped(),
		Bytes:           c.Bytes(),
		ByKind:          make(map[string]int),
	}
	for _, k := range c.Kinds() {
		fm.ByKind[k] = c.MessagesOf(k)
	}
	if lat := c.Latency(); lat.N() > 0 {
		fm.LatencyMeanMS = lat.Mean() * 1000
		fm.LatencyMaxMS = lat.Max() * 1000
		fm.LatencyCount = lat.N()
	}
	for id := 0; id < c.Nodes(); id++ {
		nid := topology.NodeID(id)
		fm.Nodes = append(fm.Nodes, NodeMetrics{
			ID:      id,
			TxMS:    float64(c.TxTime(nid)) / float64(time.Millisecond),
			RxMS:    float64(c.RxTime(nid)) / float64(time.Millisecond),
			Samples: c.Samples(nid),
			EnergyJ: c.NodeEnergy(nid, em),
		})
	}
	return fm
}

// Manifest returns the run's identifying metadata (scheme, seed, topology,
// tool version) with its config hash filled in.
func (s *Simulation) Manifest() Manifest {
	m := NewManifest("")
	m.Scheme = s.cfg.Scheme.String()
	m.Seed = s.cfg.Seed
	m.Nodes = s.topo.Size()
	m.Topology = fmt.Sprintf("%d nodes, depth %d, range %.0fft",
		s.topo.Size(), s.topo.MaxDepth(), s.topo.RadioRange())
	m.Alpha = s.cfg.Alpha
	if s.opt != nil && m.Alpha == 0 {
		m.Alpha = core.DefaultAlpha
	}
	return m.Hashed()
}

// FinalMetrics flattens the radio accounting at the current virtual
// instant, pricing node activity under the default energy model.
func (s *Simulation) FinalMetrics() FinalMetrics {
	return CollectFinal(s.coll, time.Duration(s.engine.Now()), metrics.DefaultEnergyModel())
}

// Export builds the run's export at the current virtual instant: the
// manifest labelled with the producer's study, workload and chaos scenario
// (either may be empty) and hashed, the final metrics, the optimizer state,
// the query-lifecycle summary and the series StartSeries attached. The
// caller adds what only it owns.
func (s *Simulation) Export(study, workload, chaos string) RunExport {
	m := s.Manifest()
	m.Study, m.Workload, m.Chaos = study, workload, chaos
	m.DurationMS = time.Duration(s.engine.Now()).Milliseconds()
	m.Runs = 1
	exp := RunExport{
		Manifest: m.Hashed(),
		Metrics:  s.FinalMetrics(),
		Spans:    tracing.SummarizeSpans(s.spans.Snapshot()),
		Series:   s.series,
	}
	if s.opt != nil {
		exp.Optimizer = &OptimizerState{
			UserQueries:      s.opt.UserCount(),
			SyntheticQueries: s.opt.SyntheticCount(),
		}
	}
	return exp
}
