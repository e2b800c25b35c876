package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/runner"
)

// ReportConfig is the one options value every study runs from, and the
// parameters of a full evaluation run.
type ReportConfig struct {
	Seed int64
	// Duration per packet-level run (default 10 minutes).
	Duration time.Duration
	// Runs per stochastic point (default 3).
	Runs int
	// Parallelism caps each study's worker pool (<= 0: one worker per
	// CPU). Result rows are identical at any setting.
	Parallelism int
}

func (c *ReportConfig) setDefaults() {
	if c.Duration == 0 {
		c.Duration = 10 * time.Minute
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
}

// entry is one study of the registry: how it runs from the options value,
// and the one table its rows print as, in the -fig text and in the report.
type entry struct {
	fig   string // the cmd/ttmqo-bench -fig name
	name  string // the export name; errors name the study by it
	title string // the markdown section heading
	// note is prose about the table. The report prints it above the table;
	// the -fig text prints a one-line note below its table and leaves longer
	// prose to the report.
	note  string
	run   func(ReportConfig, *runner.Timing) (any, error)
	table func(b *strings.Builder, rows any, md bool)
}

// def types one entry's rows once, so its run and its columns agree.
func def[R any](fig, name, title, note string, run func(ReportConfig, *runner.Timing) ([]R, error), cols []column[R]) entry {
	return entry{fig: fig, name: name, title: title, note: note,
		run:   func(c ReportConfig, tm *runner.Timing) (any, error) { return run(c, tm) },
		table: func(b *strings.Builder, rows any, md bool) { writeTable(b, cols, rows.([]R), md) },
	}
}

// text renders rows as the -fig text table.
func (e *entry) text(rows any) string {
	var b strings.Builder
	e.table(&b, rows, false)
	if e.note != "" && !strings.Contains(e.note, "\n") {
		b.WriteString(e.note + "\n")
	}
	return b.String()
}

// markdown renders rows as the report's section body: the note, then the
// table.
func (e *entry) markdown(b *strings.Builder, rows any) {
	if e.note != "" {
		b.WriteString(e.note + "\n\n")
	}
	e.table(b, rows, true)
}

func itoa[N int | int64](n N) string { return strconv.FormatInt(int64(n), 10) }

// fig4Columns is the table of the three Figure 4 studies.
var fig4Columns = []column[Fig4Point]{
	{"concurrency", 11, func(p Fig4Point) string { return itoa(p.Concurrency) }},
	{"alpha", 6, func(p Fig4Point) string { return fmt.Sprintf("%.2f", p.Alpha) }},
	{"benefit(%)", 12, func(p Fig4Point) string { return fmt.Sprintf("%.1f", p.BenefitRatio*100) }},
	{"±σ", 6, func(p Fig4Point) string { return fmt.Sprintf("%.1f", p.BenefitStd*100) }},
	{"avgSyn", 9, func(p Fig4Point) string { return fmt.Sprintf("%.2f", p.AvgSynthetic) }},
	{"avgConc", 10, func(p Fig4Point) string { return fmt.Sprintf("%.1f", p.AvgConcurrent) }},
	{"reinject", 8, func(p Fig4Point) string { return itoa(p.Reinjections) }},
}

// registry is the evaluation: every figure and extension study once, in
// the order it runs, prints, exports and renders.
var registry = []entry{
	def("2", "figure 2", "Figure 2 — worked example (§3.2.2)", "(parenthesised: the paper's §3.2.2 counts)",
		func(ReportConfig, *runner.Timing) ([]Fig2Row, error) { return RunFigure2Example() },
		// Each count cell is one wider than its header, as the text has
		// always printed them.
		[]column[Fig2Row]{
			{"mode", -7, func(r Fig2Row) string { return r.Mode }},
			{"acqMsgs", 12, func(r Fig2Row) string { return fmt.Sprintf("%8d (%2d)", r.AcqMessages, r.WantAcqMessages) }},
			{"acqNodes", 12, func(r Fig2Row) string { return fmt.Sprintf("%8d (%d)", r.AcqNodes, r.WantAcqNodes) }},
			{"aggMsgs", 12, func(r Fig2Row) string { return fmt.Sprintf("%8d (%2d)", r.AggMessages, r.WantAggMessages) }},
		}),
	def("3", "figure 3", "Figure 3 — average transmission time", "",
		func(c ReportConfig, tm *runner.Timing) ([]Fig3Row, error) {
			return RunFigure3(Fig3Config{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[Fig3Row]{
			{"workload", -9, func(r Fig3Row) string { return r.Workload }},
			{"nodes", 6, func(r Fig3Row) string { return itoa(r.Nodes) }},
			{"scheme", -13, func(r Fig3Row) string { return r.Scheme.String() }},
			{"avgTx(%)", 10, func(r Fig3Row) string { return fmt.Sprintf("%.4f", r.AvgTxPct) }},
			{"save(%)", 9, func(r Fig3Row) string { return fmt.Sprintf("%.1f", r.SavingsPct) }},
			{"messages", 9, func(r Fig3Row) string { return itoa(r.Messages) }},
			{"retrans", 8, func(r Fig3Row) string { return itoa(r.Retransmissions) }},
		}),
	def("4a", "figure 4a", "Figure 4(a) — benefit ratio vs concurrency (α = 0.6)", "",
		func(c ReportConfig, tm *runner.Timing) ([]Fig4Point, error) {
			return RunFigure4A(Fig4Config{Seed: c.Seed, Runs: c.Runs, Parallelism: c.Parallelism, Timing: tm})
		}, fig4Columns),
	def("4b", "figure 4b", "Figure 4(b) — benefit ratio vs α (8 concurrent, 64-node model)", "",
		func(c ReportConfig, tm *runner.Timing) ([]Fig4Point, error) {
			return RunFigure4B(Fig4Config{Seed: c.Seed, Runs: c.Runs, Side: 8, Parallelism: c.Parallelism, Timing: tm})
		}, fig4Columns),
	def("4c", "figure 4c", "Figure 4(c) — synthetic query count", "",
		func(c ReportConfig, tm *runner.Timing) ([]Fig4Point, error) {
			return RunFigure4C(Fig4Config{Seed: c.Seed, Runs: c.Runs, Parallelism: c.Parallelism, Timing: tm})
		}, fig4Columns),
	def("5", "figure 5", "Figure 5 — savings vs predicate selectivity", "",
		func(c ReportConfig, tm *runner.Timing) ([]Fig5Row, error) {
			return RunFigure5(Fig5Config{Seed: c.Seed, Duration: c.Duration, Runs: c.Runs, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[Fig5Row]{
			{"aggFrac", 8, func(r Fig5Row) string { return fmt.Sprintf("%.2f", r.AggFraction) }},
			{"selectivity", 12, func(r Fig5Row) string { return fmt.Sprintf("%.2f", r.Selectivity) }},
			{"baseline(%)", 13, func(r Fig5Row) string { return fmt.Sprintf("%.4f", r.BaselineTxPct) }},
			{"ttmqo(%)", 10, func(r Fig5Row) string { return fmt.Sprintf("%.4f", r.TTMQOTxPct) }},
			{"save(%)", 9, func(r Fig5Row) string { return fmt.Sprintf("%.1f", r.SavingsPct) }},
			{"±σ", 6, func(r Fig5Row) string { return fmt.Sprintf("%.1f", r.SavingsStd) }},
		}),
	def("reliability", "reliability", "Reliability under node failures (extension)", "",
		func(c ReportConfig, tm *runner.Timing) ([]ReliabilityRow, error) {
			return RunReliability(ReliabilityConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[ReliabilityRow]{
			{"scheme", -13, func(r ReliabilityRow) string { return r.Scheme.String() }},
			{"mtbf", 8, func(r ReliabilityRow) string {
				return map[bool]string{false: "none", true: r.MTBF.String()}[r.MTBF > 0]
			}},
			{"completeness", 14, func(r ReliabilityRow) string { return fmt.Sprintf("%.1f%%", r.Completeness*100) }},
			{"failures", 9, func(r ReliabilityRow) string { return itoa(r.Failures) }},
			{"avgTx(%)", 10, func(r ReliabilityRow) string { return fmt.Sprintf("%.4f", r.AvgTxPct) }},
		}),
	def("chaos", "chaos", "Chaos & crash recovery (extension)", "",
		func(c ReportConfig, tm *runner.Timing) ([]ChaosRow, error) {
			return RunChaos(ChaosConfig{Seed: c.Seed, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[ChaosRow]{
			{"scenario", -11, func(r ChaosRow) string { return r.Scenario }},
			{"faults", 7, func(r ChaosRow) string { return itoa(r.FaultEvents) }},
			{"crashes", 8, func(r ChaosRow) string { return itoa(r.Crashes) }},
			{"reconnects", 10, func(r ChaosRow) string { return itoa(r.Reconnects) }},
			{"completeness", 14, func(r ChaosRow) string { return fmt.Sprintf("%.1f%%", r.Completeness*100) }},
			{"dup", 4, func(r ChaosRow) string { return itoa(r.Duplicates) }},
			{"gaps", 5, func(r ChaosRow) string { return itoa(r.Gaps) }},
			{"violations", 0, func(r ChaosRow) string { return cmp.Or(strings.Join(r.Violations, "; "), "none") }},
		}),
	def("scaling", "scaling", "Scaling with network size (extension)", "",
		func(c ReportConfig, tm *runner.Timing) ([]ScalingRow, error) {
			return RunScaling(ScalingConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[ScalingRow]{
			{"nodes", 6, func(r ScalingRow) string { return itoa(r.Nodes) }},
			{"scheme", -13, func(r ScalingRow) string { return r.Scheme.String() }},
			{"avgTx(%)", 10, func(r ScalingRow) string { return fmt.Sprintf("%.4f", r.AvgTxPct) }},
			{"save(%)", 9, func(r ScalingRow) string { return fmt.Sprintf("%.1f", r.SavingsPct) }},
			{"latency(ms)", 12, func(r ScalingRow) string { return fmt.Sprintf("%.0f", r.MeanLatencyMS) }},
			{"messages", 9, func(r ScalingRow) string { return itoa(r.Messages) }},
			{"ttfr50(ms)", 10, func(r ScalingRow) string { return fmt.Sprintf("%.0f", r.TTFRP50MS) }},
			{"ttfr95(ms)", 10, func(r ScalingRow) string { return fmt.Sprintf("%.0f", r.TTFRP95MS) }},
		}),
	// The federation and share cells run one after another, so no worker
	// pool and no timing: each is a chaos drill whose leak check counts
	// every goroutine in the process, and a concurrent cell's would count.
	def("federation", "federation", "Federation scaling with shard count (extension)",
		"Constant per-shard world and subscriber load; the router steps the\nshards of a quantum in place, one after the other, and recombines partial\naggregates at a shared watermark. Delivered updates scale exactly with\nthe fleet.",
		func(c ReportConfig, _ *runner.Timing) ([]FederationScalingRow, error) {
			return RunFederationScaling(FederationScalingConfig{Seed: c.Seed})
		},
		[]column[FederationScalingRow]{
			{"shards", 6, func(r FederationScalingRow) string { return itoa(r.Shards) }},
			{"sensors", 7, func(r FederationScalingRow) string { return itoa(r.Sensors) }},
			{"sessions", 8, func(r FederationScalingRow) string { return itoa(r.Sessions) }},
			{"subs", 5, func(r FederationScalingRow) string { return itoa(r.Subs) }},
			{"trees", 5, func(r FederationScalingRow) string { return itoa(r.Trees) }},
			{"upstreams", 9, func(r FederationScalingRow) string { return itoa(r.Upstreams) }},
			{"updates", 8, func(r FederationScalingRow) string { return itoa(r.Updates) }},
			{"rows", 8, func(r FederationScalingRow) string { return itoa(r.Rows) }},
			{"merged epochs", 13, func(r FederationScalingRow) string { return itoa(r.MergedEpochs) }},
		}),
	def("share", "share", "Cross-query sharing at the gateway (extension)",
		"Each overlap factor runs the same subscriber population twice: straight\nagainst the gateway (tier-1 exact dedup only) and through the\n`internal/share` coordinator (partial-aggregate CSE + windowed result\ncache). At overlap 0 every query is a single grid cell, so sharing can\nonly tie; as regions widen and coincide, fragment reuse cuts the\ndistinct queries injected into the network, and the warm cache replays\nrecent epochs so late subscribers skip the cold first-epoch wait.",
		func(c ReportConfig, _ *runner.Timing) ([]ShareStudyRow, error) {
			return RunShareStudy(ShareStudyConfig{Seed: c.Seed})
		},
		[]column[ShareStudyRow]{
			{"overlap", 7, func(r ShareStudyRow) string { return fmt.Sprintf("%.2f", r.Overlap) }},
			{"sharing", 7, func(r ShareStudyRow) string { return map[bool]string{false: "off", true: "on"}[r.Sharing] }},
			{"upstream", 8, func(r ShareStudyRow) string { return itoa(r.Upstream) }},
			{"messages", 9, func(r ShareStudyRow) string { return itoa(r.Messages) }},
			{"cold50(ms)", 11, func(r ShareStudyRow) string { return fmt.Sprintf("%.0f", r.ColdTTFR50MS) }},
			{"cold95(ms)", 11, func(r ShareStudyRow) string { return fmt.Sprintf("%.0f", r.ColdTTFR95MS) }},
			{"late50(ms)", 11, func(r ShareStudyRow) string { return fmt.Sprintf("%.0f", r.LateTTFR50MS) }},
			{"late95(ms)", 11, func(r ShareStudyRow) string { return fmt.Sprintf("%.0f", r.LateTTFR95MS) }},
			{"reuse", 7, func(r ShareStudyRow) string { return fmt.Sprintf("%.2f", r.FragmentReuse) }},
			{"cachehit", 7, func(r ShareStudyRow) string { return fmt.Sprintf("%.2f", r.CacheHitRatio) }},
		}),
	def("lifetime", "lifetime", "Energy & network lifetime (extension)", "",
		func(c ReportConfig, tm *runner.Timing) ([]LifetimeRow, error) {
			return RunLifetime(LifetimeConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[LifetimeRow]{
			{"scheme", -13, func(r LifetimeRow) string { return r.Scheme.String() }},
			{"energy(J)", 10, func(r LifetimeRow) string { return fmt.Sprintf("%.1f", r.TotalJ) }},
			{"lifetime", 14, func(r LifetimeRow) string { return r.Lifetime.Round(time.Hour).String() }},
			{"gain", 9, func(r LifetimeRow) string { return fmt.Sprintf("%+.1f%%", r.GainPct) }},
		}),
	def("ablation", "ablation", "Tier-2 mechanism ablation (extension)", "",
		func(c ReportConfig, tm *runner.Timing) ([]AblationRow, error) {
			return RunAblation(AblationConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		[]column[AblationRow]{
			{"variant", -12, func(r AblationRow) string { return r.Variant }},
			{"avgTx(%)", 10, func(r AblationRow) string { return fmt.Sprintf("%.4f", r.AvgTxPct) }},
			{"vs full", 10, func(r AblationRow) string { return fmt.Sprintf("%+.1f%%", r.DeltaPct) }},
			{"messages", 9, func(r AblationRow) string { return itoa(r.Messages) }},
		}),
}

// StudyNames lists the -fig name of every study in registry order.
func StudyNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.fig
	}
	return names
}

// Report bundles the results of one evaluation run.
type Report struct {
	Config ReportConfig
	// Fig is the selection that ran: one -fig name, or "all".
	Fig string
	// Studies holds each study's rows and sweep timing, in registry order.
	Studies []Study
	Elapsed time.Duration
}

// Run executes the studies fig selects — one -fig name, or "all" for the
// whole registry — and bundles their rows. When out is non-nil, each
// study's text table and sweep timing are written to it as the study ends.
// The first study to fail stops the run, and its error names the study.
func Run(cfg ReportConfig, fig string, out io.Writer) (*Report, error) {
	if names := StudyNames(); fig != "all" && !slices.Contains(names, fig) {
		return nil, fmt.Errorf("unknown figure %q: want %s or all", fig, strings.Join(names, ", "))
	}
	cfg.setDefaults()
	r := &Report{Config: cfg, Fig: fig}
	for i := range registry {
		e := &registry[i]
		if fig != "all" && fig != e.fig {
			continue
		}
		s := Study{Name: e.name, entry: e}
		var err error
		if s.Rows, err = e.run(cfg, &s.Timing); err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		r.Studies = append(r.Studies, s)
		if out != nil {
			fmt.Fprintf(out, "=== Figure %s ===\n%s", e.fig, e.text(s.Rows))
			if len(s.Timing.Cells) > 0 {
				fmt.Fprintf(out, "timing: %s\n", s.Timing.String())
			}
			fmt.Fprintln(out)
		}
	}
	return r, nil
}

// RunAll executes every study and returns the bundled report, including
// per-study wall-clock timing. The overall Elapsed is measured by the
// caller and stored if desired.
func RunAll(cfg ReportConfig) (*Report, error) { return Run(cfg, "all", nil) }

// Markdown renders the report as a self-contained document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# TTMQO evaluation report\n\n")
	fmt.Fprintf(&b, "Seed %d · %v per packet-level run · %d seeds per stochastic point",
		r.Config.Seed, r.Config.Duration, r.Config.Runs)
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, " · generated in %v", r.Elapsed.Round(time.Second))
	}
	b.WriteString("\n")
	timed := false
	for _, s := range r.Studies {
		fmt.Fprintf(&b, "\n## %s\n\n", s.entry.title)
		s.entry.markdown(&b, s.Rows)
		timed = timed || len(s.Timing.Cells) > 0
	}
	if timed {
		b.WriteString("\n## Wall-clock timing (parallel runner)\n\n")
		b.WriteString("Cells are independent simulation worlds fanned across the worker\npool; rows are reassembled in input order, so results are identical at\nany parallelism.\n\n")
		b.WriteString("| study | cells | workers | wall | cpu | speedup | max cell |\n|---|---|---|---|---|---|---|\n")
		for _, s := range r.Studies {
			tm := s.Timing
			if len(tm.Cells) == 0 {
				continue
			}
			fmt.Fprintf(&b, "| %s | %d | %d | %v | %v | %.1fx | %v |\n",
				s.Name, len(tm.Cells), tm.Workers,
				tm.Wall.Round(time.Millisecond), tm.Total().Round(time.Millisecond),
				tm.Speedup(), tm.Max().Round(time.Millisecond))
		}
	}
	b.WriteString("\n")
	return b.String()
}
