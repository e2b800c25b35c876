package experiments

import (
	"fmt"
	"io"
	"slices"
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
// and how its rows print as text and as a markdown section.
type entry struct {
	fig   string // the cmd/ttmqo-bench -fig name
	name  string // the export name; errors name the study by it
	title string // the markdown section heading
	run   func(ReportConfig, *runner.Timing) (any, error)
	text  func(rows any) string
	md    func(b *strings.Builder, rows any)
}

// def types one entry's rows once, so its run, text and md parts agree.
func def[R any](fig, name, title string, run func(ReportConfig, *runner.Timing) ([]R, error),
	text func([]R) string, md func(*strings.Builder, []R)) entry {
	return entry{fig: fig, name: name, title: title,
		run:  func(c ReportConfig, tm *runner.Timing) (any, error) { return run(c, tm) },
		text: func(rows any) string { return text(rows.([]R)) },
		md:   func(b *strings.Builder, rows any) { md(b, rows.([]R)) },
	}
}

// registry is the evaluation: every figure and extension study once, in
// the order it runs, prints, exports and renders.
var registry = []entry{
	def("2", "figure 2", "Figure 2 — worked example (§3.2.2)",
		func(ReportConfig, *runner.Timing) ([]Fig2Row, error) { return RunFigure2Example() },
		Fig2String, func(b *strings.Builder, rows []Fig2Row) {
			b.WriteString("| mode | acquisition msgs | involved nodes | aggregation msgs |\n|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %s | %d (paper: %d) | %d (paper: %d) | %d (paper: %d) |\n",
					row.Mode, row.AcqMessages, row.WantAcqMessages,
					row.AcqNodes, row.WantAcqNodes, row.AggMessages, row.WantAggMessages)
			}
		}),
	def("3", "figure 3", "Figure 3 — average transmission time",
		func(c ReportConfig, tm *runner.Timing) ([]Fig3Row, error) {
			return RunFigure3(Fig3Config{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		Fig3String, func(b *strings.Builder, rows []Fig3Row) {
			b.WriteString("| workload | nodes | scheme | avgTx (%) | savings (%) | messages | retrans |\n|---|---|---|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %s | %d | %s | %.4f | %.1f | %d | %d |\n",
					row.Workload, row.Nodes, row.Scheme, row.AvgTxPct, row.SavingsPct,
					row.Messages, row.Retransmissions)
			}
		}),
	def("4a", "figure 4a", "Figure 4(a) — benefit ratio vs concurrency (α = 0.6)",
		func(c ReportConfig, tm *runner.Timing) ([]Fig4Point, error) {
			return RunFigure4A(Fig4Config{Seed: c.Seed, Runs: c.Runs, Parallelism: c.Parallelism, Timing: tm})
		}, Fig4String, writeFig4Table),
	def("4b", "figure 4b", "Figure 4(b) — benefit ratio vs α (8 concurrent, 64-node model)",
		func(c ReportConfig, tm *runner.Timing) ([]Fig4Point, error) {
			return RunFigure4B(Fig4Config{Seed: c.Seed, Runs: c.Runs, Side: 8, Parallelism: c.Parallelism, Timing: tm})
		}, Fig4String, writeFig4Table),
	def("4c", "figure 4c", "Figure 4(c) — synthetic query count",
		func(c ReportConfig, tm *runner.Timing) ([]Fig4Point, error) {
			return RunFigure4C(Fig4Config{Seed: c.Seed, Runs: c.Runs, Parallelism: c.Parallelism, Timing: tm})
		}, Fig4String, writeFig4Table),
	def("5", "figure 5", "Figure 5 — savings vs predicate selectivity",
		func(c ReportConfig, tm *runner.Timing) ([]Fig5Row, error) {
			return RunFigure5(Fig5Config{Seed: c.Seed, Duration: c.Duration, Runs: c.Runs, Parallelism: c.Parallelism, Timing: tm})
		},
		Fig5String, func(b *strings.Builder, rows []Fig5Row) {
			b.WriteString("| agg mix | selectivity | baseline (%) | ttmqo (%) | savings (%) | ±σ |\n|---|---|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %.0f%% | %.1f | %.4f | %.4f | %.1f | %.1f |\n",
					row.AggFraction*100, row.Selectivity, row.BaselineTxPct, row.TTMQOTxPct,
					row.SavingsPct, row.SavingsStd)
			}
		}),
	def("reliability", "reliability", "Reliability under node failures (extension)",
		func(c ReportConfig, tm *runner.Timing) ([]ReliabilityRow, error) {
			return RunReliability(ReliabilityConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		ReliabilityString, func(b *strings.Builder, rows []ReliabilityRow) {
			b.WriteString("| scheme | MTBF | completeness | failures | avgTx (%) |\n|---|---|---|---|---|\n")
			for _, row := range rows {
				mtbf := "none"
				if row.MTBF > 0 {
					mtbf = row.MTBF.String()
				}
				fmt.Fprintf(b, "| %s | %s | %.1f%% | %d | %.4f |\n",
					row.Scheme, mtbf, row.Completeness*100, row.Failures, row.AvgTxPct)
			}
		}),
	def("chaos", "chaos", "Chaos & crash recovery (extension)",
		func(c ReportConfig, tm *runner.Timing) ([]ChaosRow, error) {
			return RunChaos(ChaosConfig{Seed: c.Seed, Parallelism: c.Parallelism, Timing: tm})
		},
		ChaosString, func(b *strings.Builder, rows []ChaosRow) {
			b.WriteString("| scenario | faults | crashes | reconnects | completeness | dup | gaps | violations |\n|---|---|---|---|---|---|---|---|\n")
			for _, row := range rows {
				v := "none"
				if len(row.Violations) > 0 {
					v = strings.Join(row.Violations, "; ")
				}
				fmt.Fprintf(b, "| %s | %d | %d | %d | %.1f%% | %d | %d | %s |\n",
					row.Scenario, row.FaultEvents, row.Crashes, row.Reconnects,
					row.Completeness*100, row.Duplicates, row.Gaps, v)
			}
		}),
	def("scaling", "scaling", "Scaling with network size (extension)",
		func(c ReportConfig, tm *runner.Timing) ([]ScalingRow, error) {
			return RunScaling(ScalingConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		ScalingString, func(b *strings.Builder, rows []ScalingRow) {
			b.WriteString("| nodes | scheme | avgTx (%) | savings (%) | latency (ms) | messages |\n|---|---|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %d | %s | %.4f | %.1f | %.0f | %d |\n",
					row.Nodes, row.Scheme, row.AvgTxPct, row.SavingsPct, row.MeanLatencyMS, row.Messages)
			}
		}),
	// The federation and share cells run one after another, so no worker
	// pool and no timing: each is a chaos drill whose leak check counts
	// every goroutine in the process, and a concurrent cell's would count.
	def("federation", "federation", "Federation scaling with shard count (extension)",
		func(c ReportConfig, _ *runner.Timing) ([]FederationScalingRow, error) {
			return RunFederationScaling(FederationScalingConfig{Seed: c.Seed})
		},
		FederationScalingString, func(b *strings.Builder, rows []FederationScalingRow) {
			b.WriteString("Constant per-shard world and subscriber load; the router steps the\nshards of a quantum in place, one after the other, and recombines partial\naggregates at a shared watermark. Delivered updates scale exactly with\nthe fleet.\n\n")
			b.WriteString("| shards | sensors | sessions | subs | upstreams | updates | merged epochs |\n|---|---|---|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %d | %d | %d | %d | %d | %d | %d |\n",
					row.Shards, row.Sensors, row.Sessions, row.Subs, row.Upstreams, row.Updates, row.MergedEpochs)
			}
		}),
	def("share", "share", "Cross-query sharing at the gateway (extension)",
		func(c ReportConfig, _ *runner.Timing) ([]ShareStudyRow, error) {
			return RunShareStudy(ShareStudyConfig{Seed: c.Seed})
		},
		ShareStudyString, func(b *strings.Builder, rows []ShareStudyRow) {
			b.WriteString("Each overlap factor runs the same subscriber population twice: straight\nagainst the gateway (tier-1 exact dedup only) and through the\n`internal/share` coordinator (partial-aggregate CSE + windowed result\ncache). At overlap 0 every query is a single grid cell, so sharing can\nonly tie; as regions widen and coincide, fragment reuse cuts the\ndistinct queries injected into the network, and the warm cache replays\nrecent epochs so late subscribers skip the cold first-epoch wait.\n\n")
			b.WriteString("| overlap | sharing | upstream | messages | cold ttfr95 (ms) | late ttfr95 (ms) | fragment reuse | cache hits |\n|---|---|---|---|---|---|---|---|\n")
			for _, row := range rows {
				mode := "off"
				if row.Sharing {
					mode = "on"
				}
				fmt.Fprintf(b, "| %.2f | %s | %d | %d | %.0f | %.0f | %.2f | %.2f |\n",
					row.Overlap, mode, row.Upstream, row.Messages,
					row.ColdTTFR95MS, row.LateTTFR95MS, row.FragmentReuse, row.CacheHitRatio)
			}
		}),
	def("lifetime", "lifetime", "Energy & network lifetime (extension)",
		func(c ReportConfig, tm *runner.Timing) ([]LifetimeRow, error) {
			return RunLifetime(LifetimeConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		LifetimeString, func(b *strings.Builder, rows []LifetimeRow) {
			b.WriteString("| scheme | energy (J) | lifetime | gain |\n|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %s | %.1f | %s | %+.1f%% |\n",
					row.Scheme, row.TotalJ, row.Lifetime.Round(time.Hour), row.GainPct)
			}
		}),
	def("ablation", "ablation", "Tier-2 mechanism ablation (extension)",
		func(c ReportConfig, tm *runner.Timing) ([]AblationRow, error) {
			return RunAblation(AblationConfig{Seed: c.Seed, Duration: c.Duration, Parallelism: c.Parallelism, Timing: tm})
		},
		AblationString, func(b *strings.Builder, rows []AblationRow) {
			b.WriteString("| variant | avgTx (%) | vs full | messages |\n|---|---|---|---|\n")
			for _, row := range rows {
				fmt.Fprintf(b, "| %s | %.4f | %+.1f%% | %d |\n",
					row.Variant, row.AvgTxPct, row.DeltaPct, row.Messages)
			}
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
		s.entry.md(&b, s.Rows)
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

func writeFig4Table(b *strings.Builder, pts []Fig4Point) {
	b.WriteString("| concurrency | α | benefit (%) | ±σ | avg synthetic | reinjections |\n|---|---|---|---|---|---|\n")
	for _, p := range pts {
		fmt.Fprintf(b, "| %d | %.2f | %.1f | %.1f | %.2f | %d |\n",
			p.Concurrency, p.Alpha, p.BenefitRatio*100, p.BenefitStd*100,
			p.AvgSynthetic, p.Reinjections)
	}
}
