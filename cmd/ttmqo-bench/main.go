// Command ttmqo-bench regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	ttmqo-bench [-fig 2|3|4a|4b|4c|5|reliability|chaos|scaling|federation|share|lifetime|ablation|all]
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
// pprof profiles of the sweep for performance work. The first study to fail
// stops the run: its error names the study, the exit code is 1 and no file
// is written. An unknown -fig name fails the same way and lists the names.
//
// The serving stack's performance is not measured here: `bash bench/run.sh`
// (declared in BENCHMARK.json) is the one end-to-end benchmark, and
// `make bench` prints the Go micro-benchmarks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	ttmqo "repro"
)

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(ttmqo.StudyNames(), ", ")+" or all")
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

	// Each study prints its text table as it ends; -md runs every study and
	// prints none of them.
	sel, out := *fig, io.Writer(os.Stdout)
	if *mdOut != "" {
		sel, out = "all", nil
	}
	start := time.Now()
	report, err := ttmqo.RunStudies(ttmqo.ReportConfig{
		Seed:        *seed,
		Duration:    time.Duration(*minutes) * time.Minute,
		Runs:        *runs,
		Parallelism: *parallel,
	}, sel, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttmqo-bench:", err)
		return 1
	}
	report.Elapsed = time.Since(start)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, report); err != nil {
			fmt.Fprintln(os.Stderr, "json:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(report.Markdown()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			return 1
		}
		fmt.Printf("wrote %s in %v\n", *mdOut, report.Elapsed.Round(time.Second))
	}
	return 0
}

func writeJSON(path string, report *ttmqo.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
