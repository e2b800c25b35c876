package ttmqo

import (
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/runner"
	"repro/internal/share"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// Query model. The aliases expose the internal implementation types under
// stable public names so external code can declare variables of them.
type (
	// Query is a parsed TinyDB-dialect continuous query.
	Query = query.Query
	// QueryID identifies a user or synthetic query.
	QueryID = query.ID
	// Predicate is a closed value range on one attribute.
	Predicate = query.Predicate
	// Agg is one ⟨operator, attribute⟩ aggregate.
	Agg = query.Agg
	// AggOp is an aggregation operator.
	AggOp = query.AggOp
	// AggState is a mergeable partial aggregate.
	AggState = query.AggState
	// Attr is a sensed attribute.
	Attr = field.Attr
	// Row is one tuple of an acquisition result stream.
	Row = query.Row
	// Values is a Row's readings, held flat (a presence mask and one slot
	// per attribute): read one with Get, count them with Len, walk them in
	// attribute order with Each, print them with String.
	Values = field.Values
	// AggResult is one tuple of an aggregation result stream.
	AggResult = query.AggResult
)

// Deployment and simulation.
type (
	// Topology is an immutable sensor deployment.
	Topology = topology.Topology
	// Point is a 2-D position in feet.
	Point = topology.Point
	// NodeID identifies a node; the base station is node 0.
	NodeID = topology.NodeID
	// Scheme selects the optimization tiers of a simulation.
	Scheme = network.Scheme
	// Simulation is a runnable simulated sensor network.
	Simulation = network.Simulation
	// SimulationConfig parametrizes NewSimulation.
	SimulationConfig = network.Config
	// Results collects a simulation's user-visible result streams.
	Results = network.Results
	// UserRows is one delivered acquisition epoch.
	UserRows = core.UserRows
	// UserAgg is one delivered aggregation epoch.
	UserAgg = core.UserAgg
	// Metrics is the radio accounting collector.
	Metrics = metrics.Collector
	// Policy selects the tier-2 node behaviours (for ablations).
	Policy = node.Policy
	// Field is the synthetic correlated sensor field.
	Field = field.Field
	// FieldConfig tunes the generated phenomena.
	FieldConfig = field.Config
	// Source abstracts reading generation.
	Source = field.Source
	// TraceSource replays recorded sensor readings (CSV traces).
	TraceSource = field.TraceSource
)

// Tier-1 optimizer.
type (
	// Optimizer is the base-station multi-query optimizer (§3.1).
	Optimizer = core.Optimizer
	// OptimizerOptions configures NewOptimizer.
	OptimizerOptions = core.Options
	// Change is the network effect of one optimizer operation.
	Change = core.Change
	// Explanation describes how a user query is served (Optimizer.Explain).
	Explanation = core.Explanation
	// CostModel evaluates the §3.1.2 cost equations.
	CostModel = cost.Model
	// CostConfig parametrizes NewCostModel.
	CostConfig = cost.Config
)

// Workloads.
type (
	// TimedQuery is one workload entry.
	TimedQuery = workload.TimedQuery
)

// Attributes.
const (
	AttrNodeID   = field.AttrNodeID
	AttrLight    = field.AttrLight
	AttrTemp     = field.AttrTemp
	AttrHumidity = field.AttrHumidity
	AttrVoltage  = field.AttrVoltage
)

// Aggregation operators.
const (
	Max   = query.Max
	Min   = query.Min
	Sum   = query.Sum
	Count = query.Count
	Avg   = query.Avg
)

// Schemes (the four bars of the paper's Figure 3).
const (
	SchemeBaseline      = network.Baseline
	SchemeBSOnly        = network.BSOnly
	SchemeInNetworkOnly = network.InNetworkOnly
	SchemeTTMQO         = network.TTMQO
)

// MinEpoch is the smallest allowed epoch duration (2048 ms, §3.2.1).
const MinEpoch = query.MinEpoch

// DefaultAlpha is the §3.1.4 termination parameter the paper finds best.
const DefaultAlpha = core.DefaultAlpha

// ParseQuery parses a TinyDB-dialect query string, e.g.
// "SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 8192ms".
func ParseQuery(s string) (Query, error) { return query.Parse(s) }

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string) Query { return query.MustParse(s) }

// NewTopology builds a deployment from explicit positions; positions[0] is
// the base station.
func NewTopology(positions []Point, radioRange float64) (*Topology, error) {
	return topology.New(positions, radioRange)
}

// NewGrid builds a side×side grid deployment.
func NewGrid(side int, spacing, radioRange float64) (*Topology, error) {
	return topology.NewGrid(side, spacing, radioRange)
}

// PaperGrid builds the paper's evaluation deployment: a side×side grid with
// 20 ft spacing and 50 ft radio range, base station at the corner.
func PaperGrid(side int) (*Topology, error) { return topology.PaperGrid(side) }

// Figure2Topology builds the 8-node deployment of the paper's Figure 2
// worked example.
func Figure2Topology() (*Topology, error) { return topology.Figure2() }

// NewSimulation builds a runnable simulated sensor network.
func NewSimulation(cfg SimulationConfig) (*Simulation, error) { return network.New(cfg) }

// NewField builds the seeded correlated sensor field for a deployment.
func NewField(topo *Topology, cfg FieldConfig) *Field { return field.New(topo, cfg) }

// LoadTraceCSV reads a sensor trace ("at_ms,node,attr,value" rows) for use
// as a simulation's Source — the substitution hook for real deployment
// data.
func LoadTraceCSV(r io.Reader) (*TraceSource, error) { return field.LoadTraceCSV(r) }

// RecordTrace samples a Source at fixed intervals into a replayable trace.
func RecordTrace(src Source, topo *Topology, attrs []Attr, every, span time.Duration) *TraceSource {
	return field.Record(src, topo, attrs, every, span)
}

// NewCostModel builds the §3.1.2 cost model for a deployment's per-level
// node counts (levelSizes[0] is the base station).
func NewCostModel(levelSizes []int, cfg CostConfig) (*CostModel, error) {
	return cost.NewModel(levelSizes, cfg)
}

// NewOptimizer builds a standalone tier-1 optimizer. Feed it user queries
// with Insert/Terminate and apply the returned Changes to your network.
func NewOptimizer(model *CostModel, opts OptimizerOptions) *Optimizer {
	return core.NewOptimizer(model, opts)
}

// InNetworkPolicy returns the full tier-2 policy set (for ablations,
// disable individual fields and pass as SimulationConfig.PolicyOverride).
func InNetworkPolicy() Policy { return node.InNetwork() }

// WorkloadA, WorkloadB and WorkloadC are the static workloads of the
// paper's Figure 3.
func WorkloadA() []TimedQuery { return workload.A() }

// WorkloadB is the tier-2-favouring Figure 3 workload.
func WorkloadB() []TimedQuery { return workload.B() }

// WorkloadC is the mixed Figure 3 workload.
func WorkloadC() []TimedQuery { return workload.C() }

// RandomWorkload generates the §4.3 adaptive workload.
func RandomWorkload(cfg RandomWorkloadConfig) []TimedQuery { return workload.Random(cfg) }

// RandomWorkloadConfig parametrizes RandomWorkload.
type RandomWorkloadConfig = workload.RandomConfig

// SelectivityWorkload generates the Figure 5 workload.
func SelectivityWorkload(cfg SelectivityWorkloadConfig) []TimedQuery {
	return workload.Selectivity(cfg)
}

// SelectivityWorkloadConfig parametrizes SelectivityWorkload.
type SelectivityWorkloadConfig = workload.SelectivityConfig

// Experiment harnesses: one per figure of the paper's evaluation. See
// EXPERIMENTS.md for the recorded results.
type (
	// Fig2Row is one mode of the Figure 2 worked example.
	Fig2Row = experiments.Fig2Row
	// Fig3Config parametrizes RunFigure3.
	Fig3Config = experiments.Fig3Config
	// Fig3Row is one bar of Figure 3.
	Fig3Row = experiments.Fig3Row
	// Fig4Config parametrizes the Figure 4 studies.
	Fig4Config = experiments.Fig4Config
	// Fig4Point is one point of a Figure 4 series.
	Fig4Point = experiments.Fig4Point
	// Fig5Config parametrizes RunFigure5.
	Fig5Config = experiments.Fig5Config
	// Fig5Row is one point of a Figure 5 series.
	Fig5Row = experiments.Fig5Row
	// AblationConfig parametrizes RunAblation.
	AblationConfig = experiments.AblationConfig
	// AblationRow is one variant of the tier-2 ablation study.
	AblationRow = experiments.AblationRow
	// ReliabilityConfig parametrizes RunReliability.
	ReliabilityConfig = experiments.ReliabilityConfig
	// ReliabilityRow is one cell of the failure study.
	ReliabilityRow = experiments.ReliabilityRow
	// ChaosConfig parametrizes RunChaos.
	ChaosConfig = experiments.ChaosConfig
	// ChaosRow is one scenario's outcome in the chaos study.
	ChaosRow = experiments.ChaosRow
	// ChaosScenario is a scripted fault schedule for the chaos harness
	// (see chaos.ParseScenario for the text format and chaos.Builtin for
	// the canned schedules).
	ChaosScenario = chaos.Scenario
	// FailureConfig injects node outages into a simulation.
	FailureConfig = network.FailureConfig
	// LifetimeConfig parametrizes RunLifetime.
	LifetimeConfig = experiments.LifetimeConfig
	// LifetimeRow is one scheme's energy outcome.
	LifetimeRow = experiments.LifetimeRow
	// ScalingConfig parametrizes RunScaling.
	ScalingConfig = experiments.ScalingConfig
	// ScalingRow is one (size, scheme) cell of the scaling study.
	ScalingRow = experiments.ScalingRow
	// FederationScalingConfig parametrizes RunFederationScaling.
	FederationScalingConfig = experiments.FederationScalingConfig
	// FederationScalingRow is one fleet-size cell of the federation
	// scaling study.
	FederationScalingRow = experiments.FederationScalingRow
	// ShareStudyConfig parametrizes RunShareStudy.
	ShareStudyConfig = experiments.ShareStudyConfig
	// ShareStudyRow is one (overlap, sharing on/off) cell of the
	// cross-query sharing study.
	ShareStudyRow = experiments.ShareStudyRow
	// EnergyModel converts radio and sensing activity into Joules.
	EnergyModel = metrics.EnergyModel
	// SweepTiming records a sweep's wall-clock accounting; point a config's
	// Timing field at one to collect it. Every experiment config also has a
	// Parallelism knob capping its worker pool (<= 0: one worker per CPU);
	// result rows are identical at any setting.
	SweepTiming = runner.Timing
	// Trace is a span recorder; one built by NewTrace and passed in
	// SimulationConfig.Trace records the run's event log.
	Trace = tracing.Recorder
	// TraceEvent is one recorded span: an event-log line (Kind, Node, At,
	// Note) or a query-lifecycle step.
	TraceEvent = tracing.Span
)

// NewTrace returns an event-log recorder retaining the last capacity
// events (4 096 for 0), or every event when capacity is negative.
func NewTrace(capacity int) *Trace { return tracing.New(tracing.TierNetwork, capacity) }

// Run exports: run manifests, virtual-time series sampling and
// machine-readable exports. A Simulation's Manifest method returns its
// identifying metadata, StartSeries attaches a sampler driven by the
// discrete-event engine, and Export builds the run's JSON envelope.
type (
	// Manifest identifies one run or sweep (scheme, seed, topology, config
	// hash, tool version); attached to every JSON export.
	Manifest = network.Manifest
	// Sample is one virtual-time snapshot of a running simulation.
	Sample = network.Sample
	// TimeSeries is the ordered sample log of one run (CSV/JSON exportable).
	TimeSeries = network.Series
	// SweepExport is the JSON envelope for experiment sweeps: manifest +
	// named study row sets.
	SweepExport = experiments.Export
	// SweepStudy is one named row set inside a SweepExport.
	SweepStudy = experiments.Study
	// RunExport is the JSON envelope for a single simulation run.
	RunExport = network.RunExport
	// FinalMetrics is the flattened end-of-run accounting of a simulation.
	FinalMetrics = network.FinalMetrics
	// NodeMetrics is one node's final radio/energy accounting.
	NodeMetrics = network.NodeMetrics
	// OptimizerState is the exported tier-1 optimizer state.
	OptimizerState = network.OptimizerState
	// QuerySpan is one query's lifecycle: admission, injected synthetic
	// queries, first result, cancellation — all in virtual time.
	// QuerySpans pairs them from a Simulation's Spans().Snapshot().
	QuerySpan = tracing.Lifecycle
	// SpanSummary aggregates a run's query spans for export: flood/dedup
	// counts and the time-to-first-result distribution.
	SpanSummary = tracing.SpanSummary
)

// QuerySpans pairs a Simulation's lifecycle spans into one QuerySpan per
// query, in admission order.
func QuerySpans(spans []TraceEvent) []QuerySpan { return tracing.Lifecycles(spans) }

// SummarizeSpans reduces a Simulation's lifecycle-span snapshot to its
// export summary (nil when no queries were recorded, so the JSON field is
// omitted).
func SummarizeSpans(spans []TraceEvent) *SpanSummary { return tracing.SummarizeSpans(spans) }

// Serving tier (internal/gateway): a goroutine-safe multi-client gateway in
// front of a Simulation. Concurrent sessions subscribe with query text;
// semantically equal queries (same canonical form after normalization) share
// one in-network query, results fan out over bounded per-subscriber buffers,
// and a group-commit mailbox keeps runs deterministic under any goroutine
// schedule. ttmqo-serve exposes it over TCP.
type (
	// Gateway is the concurrent query-serving front end.
	Gateway = gateway.Gateway
	// GatewayConfig parametrizes NewGateway.
	GatewayConfig = gateway.Config
	// GatewaySession is one registered client's handle.
	GatewaySession = gateway.Session
	// GatewayStats is the gateway's counter snapshot.
	GatewayStats = gateway.Stats
	// Subscription is one client's live attachment to a shared query.
	Subscription = gateway.Subscription
	// SubscriptionID identifies a subscription within its gateway.
	SubscriptionID = gateway.SubID
	// Update is one result epoch delivered to one subscriber.
	Update = gateway.Update
	// CloseReason says why a subscription's update stream ended.
	CloseReason = gateway.CloseReason
	// GatewayServer serves the gateway's wire protocol over TCP: binary
	// frames to clients that negotiate them, newline-delimited JSON otherwise.
	GatewayServer = gateway.Server
	// GatewayServerConfig parametrizes NewGatewayServer.
	GatewayServerConfig = gateway.ServerConfig
	// GatewayMetrics is the gateway counter block of a RunExport.
	GatewayMetrics = tier.GatewayMetrics
	// ShareCoordinator is the tier-2 cross-query sharing layer: fragment
	// CSE plus a windowed result cache in front of a gateway or router.
	ShareCoordinator = share.Coordinator
	// ShareConfig parametrizes NewShareCoordinator.
	ShareConfig = share.Config
	// ShareStats is the sharing layer's counter snapshot.
	ShareStats = share.Stats
)

// NewGateway builds a serving gateway around a fresh Simulation.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// NewShareCoordinator builds the cross-query sharing layer over an
// upstream serving tier (share.OverGateway or share.OverRouter).
func NewShareCoordinator(cfg ShareConfig) (*ShareCoordinator, error) { return share.New(cfg) }

// NewGatewayServer starts serving a gateway over TCP with a wall-clock
// pacer; Close the server before the gateway.
func NewGatewayServer(gw *Gateway, cfg GatewayServerConfig) (*GatewayServer, error) {
	return gateway.NewServer(gw, cfg)
}

// CanonicalQueryKey returns the semantic dedup key of a query: its canonical
// textual form after normalization, ignoring identity and lifetime.
func CanonicalQueryKey(q Query) string { return gateway.CanonicalKey(q) }

// DefaultSampleInterval is StartSeries's sampling period when none is given.
const DefaultSampleInterval = network.DefaultSampleInterval

// WriteJSON marshals any export envelope as deterministic indented JSON.
func WriteJSON(w io.Writer, v any) error { return network.WriteJSON(w, v) }

// CollectFinalMetrics flattens a simulation's metrics collector for export.
func CollectFinalMetrics(c *Metrics, simTime time.Duration, em EnergyModel) FinalMetrics {
	return network.CollectFinal(c, simTime, em)
}

// SweepManifest builds the manifest attached to an exported experiment
// sweep (no wall-clock state — identical bytes at any parallelism).
func SweepManifest(study string, seed int64, dur time.Duration, runs int) Manifest {
	return experiments.SweepManifest(study, seed, dur, runs)
}

// WriteSweepJSON exports one or more studies' rows under a manifest.
func WriteSweepJSON(w io.Writer, m Manifest, studies ...SweepStudy) error {
	return experiments.WriteSweepJSON(w, m, studies...)
}

// RunFigure2Example reproduces the §3.2.2 worked example (message counts on
// the Figure 2 topology).
func RunFigure2Example() ([]Fig2Row, error) { return experiments.RunFigure2Example() }

// RunFigure3 measures average transmission time per scheme, workload and
// network size.
func RunFigure3(cfg Fig3Config) ([]Fig3Row, error) { return experiments.RunFigure3(cfg) }

// RunFigure4A sweeps concurrency at α = 0.6 (benefit ratio).
func RunFigure4A(cfg Fig4Config) ([]Fig4Point, error) { return experiments.RunFigure4A(cfg) }

// RunFigure4B sweeps α at 8 concurrent queries.
func RunFigure4B(cfg Fig4Config) ([]Fig4Point, error) { return experiments.RunFigure4B(cfg) }

// RunFigure4C reports the synthetic-query count across concurrency and α.
func RunFigure4C(cfg Fig4Config) ([]Fig4Point, error) { return experiments.RunFigure4C(cfg) }

// RunFigure5 sweeps predicate selectivity for three aggregation mixes.
func RunFigure5(cfg Fig5Config) ([]Fig5Row, error) { return experiments.RunFigure5(cfg) }

// RunAblation measures the contribution of each tier-2 mechanism (full
// TTMQO versus TTMQO with one mechanism removed).
func RunAblation(cfg AblationConfig) ([]AblationRow, error) { return experiments.RunAblation(cfg) }

// RunReliability sweeps node-failure rates and measures result completeness
// against ground truth (the paper's §5 future-work direction, built as an
// extension).
func RunReliability(cfg ReliabilityConfig) ([]ReliabilityRow, error) {
	return experiments.RunReliability(cfg)
}

// RunChaos drives the full serving stack (simulation, gateway with WAL
// crash recovery, reconnecting clients) through scripted fault scenarios —
// node churn, loss bursts, partitions, gateway crashes — and reports the
// user-visible damage plus any delivery-invariant violations.
func RunChaos(cfg ChaosConfig) ([]ChaosRow, error) { return experiments.RunChaos(cfg) }

// ParseChaosScenario reads a fault scenario in the chaos text format;
// BuiltinChaosScenario returns a canned one by name (none, churn, burst,
// partition, crash, mixed).
func ParseChaosScenario(text string) (*ChaosScenario, error) { return chaos.ParseScenario(text) }

// BuiltinChaosScenario returns a canned scenario by name.
func BuiltinChaosScenario(name string) (*ChaosScenario, error) { return chaos.Builtin(name) }

// RunLifetime measures per-scheme energy consumption and extrapolated
// network lifetime (time until the busiest node's battery dies).
func RunLifetime(cfg LifetimeConfig) ([]LifetimeRow, error) {
	return experiments.RunLifetime(cfg)
}

// RunScaling sweeps network sizes for the baseline and TTMQO, extending
// Figure 3's two sizes into a curve (with result latency).
func RunScaling(cfg ScalingConfig) ([]ScalingRow, error) { return experiments.RunScaling(cfg) }

// RunFederationScaling sweeps router fleet sizes with constant per-shard
// load, measuring downstream subscriber throughput against shard count.
func RunFederationScaling(cfg FederationScalingConfig) ([]FederationScalingRow, error) {
	return experiments.RunFederationScaling(cfg)
}

// RunShareStudy sweeps query-overlap factors with the tier-2 sharing
// layer on and off, measuring injected tier-1 messages and cold vs
// warm-cache late-subscriber time-to-first-result.
func RunShareStudy(cfg ShareStudyConfig) ([]ShareStudyRow, error) {
	return experiments.RunShareStudy(cfg)
}

// DefaultEnergyModel returns the mica2-flavoured energy defaults.
func DefaultEnergyModel() EnergyModel { return metrics.DefaultEnergyModel() }

// ReportConfig is the options value every study of RunStudies and
// RunAllExperiments runs from.
type ReportConfig = experiments.ReportConfig

// Report bundles one evaluation run: each study's rows and timing. Its
// Markdown method renders it, its WriteJSON method exports it.
type Report = experiments.Report

// StudyNames lists every figure and extension study by its
// cmd/ttmqo-bench -fig name, in run order.
func StudyNames() []string { return experiments.StudyNames() }

// RunStudies executes the study named fig (one of StudyNames, or "all"),
// writing each text table to out (when non-nil) as it finishes.
func RunStudies(cfg ReportConfig, fig string, out io.Writer) (*Report, error) {
	return experiments.Run(cfg, fig, out)
}

// RunAllExperiments executes every figure and extension study and returns
// the bundled report.
func RunAllExperiments(cfg ReportConfig) (*Report, error) { return experiments.RunAll(cfg) }

// DefaultWorkers resolves a Parallelism setting: n when positive, one
// worker per CPU otherwise.
func DefaultWorkers(n int) int { return runner.DefaultWorkers(n) }

// Savings returns (baseline − value) / baseline, the figures' y axis.
func Savings(baseline, value float64) float64 { return metrics.Savings(baseline, value) }

// EpochGCD returns the greatest common divisor of two epoch durations.
func EpochGCD(a, b time.Duration) time.Duration { return query.EpochGCD(a, b) }
