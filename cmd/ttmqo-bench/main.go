// Command ttmqo-bench regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	ttmqo-bench [-fig 2|3|4a|4b|4c|5|ablation|reliability|chaos|lifetime|scaling|federation|share|all]
//	            [-seed N] [-minutes M] [-runs R] [-parallel P] [-md report.md]
//	            [-json out.json]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The -minutes flag sets the simulated duration of packet-level runs;
// -runs averages stochastic points over several workload seeds; -parallel
// caps the worker pool fanning independent simulation cells across CPUs
// (0 = one worker per CPU; results are identical at any setting); -md runs
// every study and writes a self-contained markdown report. -json exports
// the selected studies' rows plus a run manifest as machine-readable JSON
// (byte-identical at any -parallel setting); -cpuprofile/-memprofile write
// pprof profiles of the sweep for performance work.
//
// The serving stack's performance is not measured here: `bash bench/run.sh`
// (declared in BENCHMARK.json) is the one end-to-end benchmark, and
// `make bench` prints the Go micro-benchmarks.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	ttmqo "repro"
)

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 3, 4a, 4b, 4c, 5, ablation, reliability, chaos, lifetime, scaling, federation, share or all")
	seed := flag.Int64("seed", 1, "random seed")
	minutes := flag.Int("minutes", 10, "simulated minutes per packet-level run")
	runs := flag.Int("runs", 3, "workload seeds averaged per stochastic point")
	parallel := flag.Int("parallel", 0, "worker pool size for sweeps (0 = one worker per CPU)")
	mdOut := flag.String("md", "", "write a full markdown report to this file (runs everything)")
	jsonOut := flag.String("json", "", "export the selected studies' rows + manifest as JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *mdOut != "" {
		start := time.Now()
		report, err := ttmqo.RunAllExperiments(ttmqo.ReportConfig{
			Seed:        *seed,
			Duration:    time.Duration(*minutes) * time.Minute,
			Runs:        *runs,
			Parallelism: *parallel,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			return 1
		}
		report.Elapsed = time.Since(start)
		if err := os.WriteFile(*mdOut, []byte(report.Markdown()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			return 1
		}
		if *jsonOut != "" {
			if err := writeJSONFile(*jsonOut, report.Export()); err != nil {
				fmt.Fprintln(os.Stderr, "json:", err)
				return 1
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		fmt.Printf("wrote %s in %v\n", *mdOut, report.Elapsed.Round(time.Second))
		return 0
	}

	dur := time.Duration(*minutes) * time.Minute
	all := *fig == "all"
	ok := true
	// Each study writes its sweep's wall-clock accounting here; dispatch
	// prints it after the table. Studies that ran collect their rows for the
	// -json export (wall-clock timing stays out of it, so the bytes are
	// identical at any -parallel setting).
	var tm ttmqo.SweepTiming
	var studies []ttmqo.SweepStudy
	keep := func(name string, rows any) { studies = append(studies, ttmqo.SweepStudy{Name: name, Rows: rows}) }
	dispatch := func(name string, f func() error) {
		if !all && *fig != name {
			return
		}
		fmt.Printf("=== Figure %s ===\n", name)
		tm = ttmqo.SweepTiming{}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			ok = false
		}
		if len(tm.Cells) > 0 {
			fmt.Printf("timing: %s\n", tm.String())
		}
		fmt.Println()
	}

	dispatch("2", func() error {
		rows, err := ttmqo.RunFigure2Example()
		if err != nil {
			return err
		}
		keep("figure 2", rows)
		fmt.Printf("%-7s %12s %12s %12s\n", "mode", "acqMsgs", "acqNodes", "aggMsgs")
		for _, r := range rows {
			fmt.Printf("%-7s %8d (%2d) %8d (%d) %8d (%2d)\n", r.Mode,
				r.AcqMessages, r.WantAcqMessages,
				r.AcqNodes, r.WantAcqNodes,
				r.AggMessages, r.WantAggMessages)
		}
		fmt.Println("(parenthesised: the paper's §3.2.2 counts)")
		return nil
	})

	dispatch("3", func() error {
		rows, err := ttmqo.RunFigure3(ttmqo.Fig3Config{Seed: *seed, Duration: dur, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("figure 3", rows)
		fmt.Print(fig3String(rows))
		return nil
	})

	dispatch("4a", func() error {
		pts, err := ttmqo.RunFigure4A(ttmqo.Fig4Config{Seed: *seed, Runs: *runs, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("figure 4a", pts)
		fmt.Print(fig4String(pts))
		return nil
	})

	dispatch("4b", func() error {
		pts, err := ttmqo.RunFigure4B(ttmqo.Fig4Config{Seed: *seed, Runs: *runs, Side: 8, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("figure 4b", pts)
		fmt.Print(fig4String(pts))
		return nil
	})

	dispatch("4c", func() error {
		pts, err := ttmqo.RunFigure4C(ttmqo.Fig4Config{Seed: *seed, Runs: *runs, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("figure 4c", pts)
		fmt.Print(fig4String(pts))
		return nil
	})

	dispatch("5", func() error {
		rows, err := ttmqo.RunFigure5(ttmqo.Fig5Config{Seed: *seed, Duration: dur, Runs: *runs, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("figure 5", rows)
		fmt.Print(fig5String(rows))
		return nil
	})

	dispatch("reliability", func() error {
		rows, err := ttmqo.RunReliability(ttmqo.ReliabilityConfig{Seed: *seed, Duration: dur, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("reliability", rows)
		fmt.Printf("%-13s %8s %14s %9s %10s\n", "scheme", "mtbf", "completeness", "failures", "avgTx(%)")
		for _, r := range rows {
			mtbf := "none"
			if r.MTBF > 0 {
				mtbf = r.MTBF.String()
			}
			fmt.Printf("%-13s %8s %13.1f%% %9d %10.4f\n",
				r.Scheme, mtbf, r.Completeness*100, r.Failures, r.AvgTxPct)
		}
		return nil
	})

	dispatch("chaos", func() error {
		rows, err := ttmqo.RunChaos(ttmqo.ChaosConfig{Seed: *seed, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("chaos", rows)
		fmt.Print(ttmqo.ChaosString(rows))
		return nil
	})

	dispatch("scaling", func() error {
		rows, err := ttmqo.RunScaling(ttmqo.ScalingConfig{Seed: *seed, Duration: dur, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("scaling", rows)
		fmt.Print(ttmqo.ScalingString(rows))
		return nil
	})

	dispatch("federation", func() error {
		rows, err := ttmqo.RunFederationScaling(ttmqo.FederationScalingConfig{Seed: *seed})
		if err != nil {
			return err
		}
		keep("federation", rows)
		fmt.Print(ttmqo.FederationScalingString(rows))
		return nil
	})

	dispatch("share", func() error {
		rows, err := ttmqo.RunShareStudy(ttmqo.ShareStudyConfig{Seed: *seed})
		if err != nil {
			return err
		}
		keep("share", rows)
		fmt.Print(ttmqo.ShareStudyString(rows))
		return nil
	})

	dispatch("lifetime", func() error {
		rows, err := ttmqo.RunLifetime(ttmqo.LifetimeConfig{Seed: *seed, Duration: dur, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("lifetime", rows)
		fmt.Printf("%-13s %10s %14s %9s\n", "scheme", "energy(J)", "lifetime", "gain")
		for _, r := range rows {
			fmt.Printf("%-13s %10.1f %14s %+8.1f%%\n",
				r.Scheme, r.TotalJ, r.Lifetime.Round(time.Hour), r.GainPct)
		}
		return nil
	})

	dispatch("ablation", func() error {
		rows, err := ttmqo.RunAblation(ttmqo.AblationConfig{Seed: *seed, Duration: dur, Parallelism: *parallel, Timing: &tm})
		if err != nil {
			return err
		}
		keep("ablation", rows)
		fmt.Printf("%-12s %10s %10s %9s\n", "variant", "avgTx(%)", "vs full", "messages")
		for _, r := range rows {
			fmt.Printf("%-12s %10.4f %+9.1f%% %9d\n", r.Variant, r.AvgTxPct, r.DeltaPct, r.Messages)
		}
		return nil
	})

	if !ok {
		return 1
	}
	if *jsonOut != "" {
		if len(studies) == 0 {
			fmt.Fprintf(os.Stderr, "json: no studies ran for -fig %s\n", *fig)
			return 1
		}
		m := ttmqo.SweepManifest(*fig, *seed, dur, *runs)
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			return 1
		}
		if err := ttmqo.WriteSweepJSON(f, m, studies...); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "json:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ttmqo.WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fig3String(rows []ttmqo.Fig3Row) string {
	out := fmt.Sprintf("%-9s %6s %-13s %10s %9s %9s %8s\n",
		"workload", "nodes", "scheme", "avgTx(%)", "save(%)", "messages", "retrans")
	for _, r := range rows {
		out += fmt.Sprintf("%-9s %6d %-13s %10.4f %9.1f %9d %8d\n",
			r.Workload, r.Nodes, r.Scheme, r.AvgTxPct, r.SavingsPct, r.Messages, r.Retransmissions)
	}
	return out
}

func fig4String(points []ttmqo.Fig4Point) string {
	out := fmt.Sprintf("%11s %6s %12s %9s %10s %8s\n",
		"concurrency", "alpha", "benefit(%)", "avgSyn", "avgConc", "reinject")
	for _, p := range points {
		out += fmt.Sprintf("%11d %6.2f %12.1f %9.2f %10.1f %8d\n",
			p.Concurrency, p.Alpha, p.BenefitRatio*100, p.AvgSynthetic, p.AvgConcurrent, p.Reinjections)
	}
	return out
}

func fig5String(rows []ttmqo.Fig5Row) string {
	out := fmt.Sprintf("%8s %12s %13s %10s %9s\n",
		"aggFrac", "selectivity", "baseline(%)", "ttmqo(%)", "save(%)")
	for _, r := range rows {
		out += fmt.Sprintf("%8.2f %12.2f %13.4f %10.4f %9.1f\n",
			r.AggFraction, r.Selectivity, r.BaselineTxPct, r.TTMQOTxPct, r.SavingsPct)
	}
	return out
}
