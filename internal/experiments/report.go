package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/runner"
)

// ReportConfig parametrizes a full evaluation run (every figure and every
// extension study).
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

// StudyTiming is one study's wall-clock accounting within a report.
type StudyTiming struct {
	Study  string
	Timing runner.Timing
}

// Report bundles the results of one full evaluation run.
type Report struct {
	Config      ReportConfig
	Fig2        []Fig2Row
	Fig3        []Fig3Row
	Fig4A       []Fig4Point
	Fig4B       []Fig4Point
	Fig4C       []Fig4Point
	Fig5        []Fig5Row
	Ablation    []AblationRow
	Reliability []ReliabilityRow
	Chaos       []ChaosRow
	Lifetime    []LifetimeRow
	Scaling     []ScalingRow
	Federation  []FederationScalingRow
	Share       []ShareStudyRow
	// Timings records each study's cell count, wall clock and speedup.
	Timings []StudyTiming
	Elapsed time.Duration
}

// RunAll executes every study and returns the bundled report, including
// per-study wall-clock timing. The overall Elapsed is measured by the
// caller and stored if desired.
func RunAll(cfg ReportConfig) (*Report, error) {
	cfg.setDefaults()
	r := &Report{Config: cfg, Timings: make([]StudyTiming, 0, 10)}
	// timed registers a study slot and returns its Timing destination; the
	// slice is preallocated so the pointer stays valid across appends.
	timed := func(study string) *runner.Timing {
		r.Timings = append(r.Timings, StudyTiming{Study: study})
		return &r.Timings[len(r.Timings)-1].Timing
	}
	var err error
	if r.Fig2, err = RunFigure2Example(); err != nil {
		return nil, fmt.Errorf("figure 2: %w", err)
	}
	if r.Fig3, err = RunFigure3(Fig3Config{Seed: cfg.Seed, Duration: cfg.Duration,
		Parallelism: cfg.Parallelism, Timing: timed("figure 3")}); err != nil {
		return nil, fmt.Errorf("figure 3: %w", err)
	}
	if r.Fig4A, err = RunFigure4A(Fig4Config{Seed: cfg.Seed, Runs: cfg.Runs,
		Parallelism: cfg.Parallelism, Timing: timed("figure 4a")}); err != nil {
		return nil, fmt.Errorf("figure 4a: %w", err)
	}
	if r.Fig4B, err = RunFigure4B(Fig4Config{Seed: cfg.Seed, Runs: cfg.Runs, Side: 8,
		Parallelism: cfg.Parallelism, Timing: timed("figure 4b")}); err != nil {
		return nil, fmt.Errorf("figure 4b: %w", err)
	}
	if r.Fig4C, err = RunFigure4C(Fig4Config{Seed: cfg.Seed, Runs: cfg.Runs,
		Parallelism: cfg.Parallelism, Timing: timed("figure 4c")}); err != nil {
		return nil, fmt.Errorf("figure 4c: %w", err)
	}
	if r.Fig5, err = RunFigure5(Fig5Config{Seed: cfg.Seed, Duration: cfg.Duration, Runs: cfg.Runs,
		Parallelism: cfg.Parallelism, Timing: timed("figure 5")}); err != nil {
		return nil, fmt.Errorf("figure 5: %w", err)
	}
	if r.Ablation, err = RunAblation(AblationConfig{Seed: cfg.Seed, Duration: cfg.Duration,
		Parallelism: cfg.Parallelism, Timing: timed("ablation")}); err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	if r.Reliability, err = RunReliability(ReliabilityConfig{Seed: cfg.Seed, Duration: cfg.Duration,
		Parallelism: cfg.Parallelism, Timing: timed("reliability")}); err != nil {
		return nil, fmt.Errorf("reliability: %w", err)
	}
	if r.Chaos, err = RunChaos(ChaosConfig{Seed: cfg.Seed,
		Parallelism: cfg.Parallelism, Timing: timed("chaos")}); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if r.Lifetime, err = RunLifetime(LifetimeConfig{Seed: cfg.Seed, Duration: cfg.Duration,
		Parallelism: cfg.Parallelism, Timing: timed("lifetime")}); err != nil {
		return nil, fmt.Errorf("lifetime: %w", err)
	}
	if r.Scaling, err = RunScaling(ScalingConfig{Seed: cfg.Seed, Duration: cfg.Duration,
		Parallelism: cfg.Parallelism, Timing: timed("scaling")}); err != nil {
		return nil, fmt.Errorf("scaling: %w", err)
	}
	// The federation and share cells run one after another, so no worker
	// pool and no Timing slot: each is a chaos drill whose leak check counts
	// every goroutine in the process, and a concurrent cell's would count.
	if r.Federation, err = RunFederationScaling(FederationScalingConfig{Seed: cfg.Seed}); err != nil {
		return nil, fmt.Errorf("federation scaling: %w", err)
	}
	if r.Share, err = RunShareStudy(ShareStudyConfig{Seed: cfg.Seed}); err != nil {
		return nil, fmt.Errorf("share study: %w", err)
	}
	return r, nil
}

// Markdown renders the report as a self-contained document.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# TTMQO evaluation report\n\n")
	fmt.Fprintf(&b, "Seed %d · %v per packet-level run · %d seeds per stochastic point",
		r.Config.Seed, r.Config.Duration, r.Config.Runs)
	if r.Elapsed > 0 {
		fmt.Fprintf(&b, " · generated in %v", r.Elapsed.Round(time.Second))
	}
	b.WriteString("\n\n")

	b.WriteString("## Figure 2 — worked example (§3.2.2)\n\n")
	b.WriteString("| mode | acquisition msgs | involved nodes | aggregation msgs |\n|---|---|---|---|\n")
	for _, row := range r.Fig2 {
		fmt.Fprintf(&b, "| %s | %d (paper: %d) | %d (paper: %d) | %d (paper: %d) |\n",
			row.Mode, row.AcqMessages, row.WantAcqMessages,
			row.AcqNodes, row.WantAcqNodes, row.AggMessages, row.WantAggMessages)
	}

	b.WriteString("\n## Figure 3 — average transmission time\n\n")
	b.WriteString("| workload | nodes | scheme | avgTx (%) | savings (%) | messages | retrans |\n|---|---|---|---|---|---|---|\n")
	for _, row := range r.Fig3 {
		fmt.Fprintf(&b, "| %s | %d | %s | %.4f | %.1f | %d | %d |\n",
			row.Workload, row.Nodes, row.Scheme, row.AvgTxPct, row.SavingsPct,
			row.Messages, row.Retransmissions)
	}

	b.WriteString("\n## Figure 4(a) — benefit ratio vs concurrency (α = 0.6)\n\n")
	writeFig4Table(&b, r.Fig4A)
	b.WriteString("\n## Figure 4(b) — benefit ratio vs α (8 concurrent, 64-node model)\n\n")
	writeFig4Table(&b, r.Fig4B)
	b.WriteString("\n## Figure 4(c) — synthetic query count\n\n")
	writeFig4Table(&b, r.Fig4C)

	b.WriteString("\n## Figure 5 — savings vs predicate selectivity\n\n")
	b.WriteString("| agg mix | selectivity | baseline (%) | ttmqo (%) | savings (%) | ±σ |\n|---|---|---|---|---|---|\n")
	for _, row := range r.Fig5 {
		fmt.Fprintf(&b, "| %.0f%% | %.1f | %.4f | %.4f | %.1f | %.1f |\n",
			row.AggFraction*100, row.Selectivity, row.BaselineTxPct, row.TTMQOTxPct,
			row.SavingsPct, row.SavingsStd)
	}

	b.WriteString("\n## Tier-2 mechanism ablation (extension)\n\n")
	b.WriteString("| variant | avgTx (%) | vs full | messages |\n|---|---|---|---|\n")
	for _, row := range r.Ablation {
		fmt.Fprintf(&b, "| %s | %.4f | %+.1f%% | %d |\n",
			row.Variant, row.AvgTxPct, row.DeltaPct, row.Messages)
	}

	b.WriteString("\n## Reliability under node failures (extension)\n\n")
	b.WriteString("| scheme | MTBF | completeness | failures | avgTx (%) |\n|---|---|---|---|---|\n")
	for _, row := range r.Reliability {
		mtbf := "none"
		if row.MTBF > 0 {
			mtbf = row.MTBF.String()
		}
		fmt.Fprintf(&b, "| %s | %s | %.1f%% | %d | %.4f |\n",
			row.Scheme, mtbf, row.Completeness*100, row.Failures, row.AvgTxPct)
	}

	b.WriteString("\n## Chaos & crash recovery (extension)\n\n")
	b.WriteString("| scenario | faults | crashes | reconnects | completeness | dup | gaps | violations |\n|---|---|---|---|---|---|---|---|\n")
	for _, row := range r.Chaos {
		v := "none"
		if len(row.Violations) > 0 {
			v = strings.Join(row.Violations, "; ")
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1f%% | %d | %d | %s |\n",
			row.Scenario, row.FaultEvents, row.Crashes, row.Reconnects,
			row.Completeness*100, row.Duplicates, row.Gaps, v)
	}

	b.WriteString("\n## Scaling with network size (extension)\n\n")
	b.WriteString("| nodes | scheme | avgTx (%) | savings (%) | latency (ms) | messages |\n|---|---|---|---|---|---|\n")
	for _, row := range r.Scaling {
		fmt.Fprintf(&b, "| %d | %s | %.4f | %.1f | %.0f | %d |\n",
			row.Nodes, row.Scheme, row.AvgTxPct, row.SavingsPct, row.MeanLatencyMS, row.Messages)
	}

	b.WriteString("\n## Federation scaling with shard count (extension)\n\n")
	b.WriteString("Constant per-shard world and subscriber load; the router steps the\nshards of a quantum in place, one after the other, and recombines partial\naggregates at a shared watermark. Delivered updates scale exactly with\nthe fleet.\n\n")
	b.WriteString("| shards | sensors | sessions | subs | upstreams | updates | merged epochs |\n|---|---|---|---|---|---|---|\n")
	for _, row := range r.Federation {
		fmt.Fprintf(&b, "| %d | %d | %d | %d | %d | %d | %d |\n",
			row.Shards, row.Sensors, row.Sessions, row.Subs, row.Upstreams, row.Updates, row.MergedEpochs)
	}

	b.WriteString("\n## Cross-query sharing at the gateway (extension)\n\n")
	b.WriteString("Each overlap factor runs the same subscriber population twice: straight\nagainst the gateway (tier-1 exact dedup only) and through the\n`internal/share` coordinator (partial-aggregate CSE + windowed result\ncache). At overlap 0 every query is a single grid cell, so sharing can\nonly tie; as regions widen and coincide, fragment reuse cuts the\ndistinct queries injected into the network, and the warm cache replays\nrecent epochs so late subscribers skip the cold first-epoch wait.\n\n")
	b.WriteString("| overlap | sharing | upstream | messages | cold ttfr95 (ms) | late ttfr95 (ms) | fragment reuse | cache hits |\n|---|---|---|---|---|---|---|---|\n")
	for _, row := range r.Share {
		mode := "off"
		if row.Sharing {
			mode = "on"
		}
		fmt.Fprintf(&b, "| %.2f | %s | %d | %d | %.0f | %.0f | %.2f | %.2f |\n",
			row.Overlap, mode, row.Upstream, row.Messages,
			row.ColdTTFR95MS, row.LateTTFR95MS, row.FragmentReuse, row.CacheHitRatio)
	}

	b.WriteString("\n## Energy & network lifetime (extension)\n\n")
	b.WriteString("| scheme | energy (J) | lifetime | gain |\n|---|---|---|---|\n")
	for _, row := range r.Lifetime {
		fmt.Fprintf(&b, "| %s | %.1f | %s | %+.1f%% |\n",
			row.Scheme, row.TotalJ, row.Lifetime.Round(time.Hour), row.GainPct)
	}

	if len(r.Timings) > 0 {
		b.WriteString("\n## Wall-clock timing (parallel runner)\n\n")
		b.WriteString("Cells are independent simulation worlds fanned across the worker\npool; rows are reassembled in input order, so results are identical at\nany parallelism.\n\n")
		b.WriteString("| study | cells | workers | wall | cpu | speedup | max cell |\n|---|---|---|---|---|---|---|\n")
		for _, st := range r.Timings {
			tm := st.Timing
			fmt.Fprintf(&b, "| %s | %d | %d | %v | %v | %.1fx | %v |\n",
				st.Study, len(tm.Cells), tm.Workers,
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
