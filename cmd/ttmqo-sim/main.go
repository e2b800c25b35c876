// Command ttmqo-sim runs a single sensor-network simulation scenario and
// prints its radio accounting and result statistics.
//
// Usage:
//
//	ttmqo-sim [-side N] [-scheme baseline|base-station|in-network|ttmqo]
//	          [-workload A|B|C|random] [-minutes M] [-seed S] [-alpha A]
//	          [-concurrency C] [-queries Q] [-runs R] [-parallel P] [-v]
//	          [-mtbf D] [-mttr D] [-chaos scenario] [-trace out.csv]
//	          [-field in.csv] [-json out.json] [-series out.csv]
//	          [-sample 30s] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -mtbf enables random node outages (mean time between failures per node);
// -mttr sets the mean repair time (30s when left zero). Failure injection
// maps straight onto the library's FailureConfig.
//
// -chaos injects a scripted fault schedule instead of (or on top of) random
// outages: the argument is a builtin scenario name (none, churn, burst,
// partition, crash, mixed) or a scenario file in the chaos text format (see
// EXPERIMENTS.md). Scenarios with gateway crash steps are rejected here —
// there is no gateway to crash; use ttmqo-serve or the chaos study for
// those. A scenario's "seed" directive overrides -seed.
//
// With -workload random, the §4.3 adaptive workload is replayed (arrivals
// and terminations); otherwise the named static workload runs for the whole
// interval. With -runs R > 1 the scenario is replayed under seeds
// S..S+R-1, fanned across -parallel workers (0 = one per CPU), and a
// per-seed summary table is printed instead of the single-run detail.
//
// -json writes a machine-readable export: for a single run, the manifest,
// final radio metrics, optimizer state and (when sampled) the time series;
// for -runs > 1, the per-seed summary rows under a sweep manifest. -series
// writes the virtual-time metrics series as CSV, sampled every -sample of
// simulated time. -cpuprofile/-memprofile write pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	ttmqo "repro"
	"repro/internal/chaos"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/stats"
)

// loadScenario resolves -chaos: a readable file is parsed as scenario text,
// anything else is looked up as a builtin name.
func loadScenario(ref string) (*chaos.Scenario, error) {
	if b, err := os.ReadFile(ref); err == nil {
		return chaos.ParseScenario(string(b))
	}
	return chaos.Builtin(ref)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttmqo-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	side := flag.Int("side", 4, "grid side length (side² nodes)")
	schemeName := flag.String("scheme", "ttmqo", "baseline, base-station, in-network or ttmqo")
	workloadName := flag.String("workload", "C", "A, B, C or random")
	minutes := flag.Int("minutes", 10, "simulated minutes")
	seed := flag.Int64("seed", 1, "random seed")
	alpha := flag.Float64("alpha", ttmqo.DefaultAlpha, "termination parameter α")
	concurrency := flag.Int("concurrency", 8, "average concurrent queries (random workload)")
	queries := flag.Int("queries", 100, "total queries (random workload)")
	runs := flag.Int("runs", 1, "replay the scenario under seeds S..S+R-1 (summary table when > 1)")
	parallel := flag.Int("parallel", 0, "worker pool size for multi-run replays (0 = one worker per CPU)")
	mtbf := flag.Duration("mtbf", 0, "mean time between node failures (0 disables failure injection)")
	mttr := flag.Duration("mttr", 0, "mean node down-time per failure (default 30s when -mtbf is set)")
	chaosRef := flag.String("chaos", "", "scripted fault scenario: builtin name or scenario file (crash steps rejected)")
	verbose := flag.Bool("v", false, "print per-query delivery counts")
	traceOut := flag.String("trace", "", "write the run's event log as CSV to this file")
	fieldCSV := flag.String("field", "", "replay sensor readings from this CSV trace instead of the synthetic field")
	jsonOut := flag.String("json", "", "write a machine-readable run export as JSON to this file")
	seriesOut := flag.String("series", "", "write the sampled time series as CSV to this file")
	sample := flag.Duration("sample", ttmqo.DefaultSampleInterval, "virtual-time sampling interval for -series/-json")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
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

	scheme, err := network.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	topo, err := ttmqo.PaperGrid(*side)
	if err != nil {
		return err
	}
	var scenario *chaos.Scenario
	if *chaosRef != "" {
		scenario, err = loadScenario(*chaosRef)
		if err != nil {
			return err
		}
		if len(scenario.Crashes()) > 0 {
			return fmt.Errorf("scenario %q has gateway crash steps and ttmqo-sim has no gateway; use ttmqo-serve (-wal, -crash-after) or ttmqo-bench -fig chaos", scenario.Name)
		}
		if scenario.Seed != 0 {
			*seed = scenario.Seed
		}
	}
	if *runs > 1 {
		return runMany(multiConfig{
			topo: topo, scheme: scheme, seed: *seed, runs: *runs,
			parallel: *parallel, alpha: *alpha, workload: *workloadName,
			concurrency: *concurrency, queries: *queries,
			minutes: *minutes, fieldCSV: *fieldCSV, jsonOut: *jsonOut,
			failures: ttmqo.FailureConfig{MTBF: *mtbf, MTTR: *mttr},
			scenario: scenario,
		})
	}
	var buf *ttmqo.Trace
	if *traceOut != "" {
		buf = ttmqo.NewTrace(-1) // every event of the run
	}
	var source ttmqo.Source
	if *fieldCSV != "" {
		f, err := os.Open(*fieldCSV)
		if err != nil {
			return err
		}
		source, err = ttmqo.LoadTraceCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
		Topo:           topo,
		Scheme:         scheme,
		Seed:           *seed,
		Alpha:          *alpha,
		Source:         source,
		DiscardResults: !*verbose,
		Trace:          buf,
		Failures:       ttmqo.FailureConfig{MTBF: *mtbf, MTTR: *mttr},
	})
	if err != nil {
		return err
	}

	if scenario != nil {
		chaos.Inject(sim, scenario.EngineSteps())
	}

	ws, err := buildWorkload(*workloadName, *seed, *queries, *concurrency)
	if err != nil {
		return err
	}
	sim.Schedule(ws)

	dur := time.Duration(*minutes) * time.Minute
	var series *ttmqo.TimeSeries
	if *seriesOut != "" || *jsonOut != "" {
		series = sim.StartSeries(*sample)
	}
	start := time.Now()
	sim.Run(dur)
	wall := time.Since(start)

	fmt.Printf("scheme=%s nodes=%d workload=%s simulated=%v wall=%v\n",
		scheme, topo.Size(), *workloadName, dur, wall.Round(time.Millisecond))
	fmt.Printf("avg transmission time: %.4f%%\n", sim.AvgTransmissionTime()*100)
	if *mtbf > 0 {
		fmt.Printf("failures: %d injected (mtbf=%v mttr=%v)\n", sim.Failures(), *mtbf, *mttr)
	}
	if scenario != nil {
		fmt.Printf("chaos: scenario=%s steps=%d horizon=%v\n",
			scenario.Name, len(scenario.Steps), scenario.Horizon())
	}
	fmt.Printf("radio: %s\n", sim.Metrics())
	if lat := sim.Metrics().Latency(); lat.N() > 0 {
		fmt.Printf("result latency: mean %.0fms, max %.0fms over %d messages\n",
			lat.Mean()*1000, lat.Max()*1000, lat.N())
	}
	if sm := ttmqo.SummarizeSpans(sim.Spans().Snapshot()); sm != nil {
		fmt.Printf("query spans: %d admitted, %d flooded, %d first results, ttfr p50 %.0fms p95 %.0fms\n",
			sm.Queries, sm.Flooded, sm.FirstResults, sm.TTFRP50MS, sm.TTFRP95MS)
	}
	if opt := sim.Optimizer(); opt != nil {
		fmt.Printf("optimizer: %d live user queries in %d synthetic queries\n",
			opt.UserCount(), opt.SyntheticCount())
		for _, sq := range opt.SyntheticQueries() {
			fmt.Printf("  syn %d serves %v: %s\n", sq.ID, opt.FromList(sq.ID), sq)
		}
	}
	if buf != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := buf.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trace: %s (%s)\n", *traceOut, buf.Summary())
	}
	if *verbose {
		for _, w := range ws {
			id := w.Query.ID
			if n := sim.Results().RowEpochs(id); n > 0 {
				fmt.Printf("  q%d: %d acquisition epochs\n", id, n)
			}
			if n := sim.Results().AggEpochs(id); n > 0 {
				fmt.Printf("  q%d: %d aggregation epochs\n", id, n)
			}
		}
	}
	if *seriesOut != "" {
		f, err := os.Create(*seriesOut)
		if err != nil {
			return err
		}
		if err := series.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("series: %s (%d samples)\n", *seriesOut, series.Len())
	}
	if *jsonOut != "" {
		var chaosName string
		if scenario != nil {
			chaosName = scenario.Name
		}
		re := sim.Export("sim", *workloadName, chaosName)
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := ttmqo.WriteJSON(f, re); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("json: %s\n", *jsonOut)
	}
	return nil
}

func buildWorkload(name string, seed int64, queries, concurrency int) ([]ttmqo.TimedQuery, error) {
	switch name {
	case "A":
		return ttmqo.WorkloadA(), nil
	case "B":
		return ttmqo.WorkloadB(), nil
	case "C":
		return ttmqo.WorkloadC(), nil
	case "random":
		return ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{
			Seed:              seed,
			NumQueries:        queries,
			TargetConcurrency: concurrency,
		}), nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

type multiConfig struct {
	topo        *ttmqo.Topology
	scheme      ttmqo.Scheme
	seed        int64
	runs        int
	parallel    int
	alpha       float64
	workload    string
	concurrency int
	queries     int
	minutes     int
	fieldCSV    string
	jsonOut     string
	failures    ttmqo.FailureConfig
	scenario    *chaos.Scenario
}

// seedOutcome is one seed's summary row; exported fields so -json replays
// round-trip through encoding/json.
type seedOutcome struct {
	Seed            int64   `json:"seed"`
	AvgTxPct        float64 `json:"avg_tx_pct"`
	Messages        int     `json:"messages"`
	Retransmissions int     `json:"retransmissions"`
}

// runMany replays the scenario under runs consecutive seeds, fanned across
// the worker pool. Each replay is an independent simulation world (its own
// source, loaded per cell when replaying a CSV trace), so the per-seed rows
// are identical at any parallelism.
func runMany(cfg multiConfig) error {
	dur := time.Duration(cfg.minutes) * time.Minute
	var tm runner.Timing
	rows, err := runner.MapTimed(cfg.parallel, cfg.runs, &tm, func(i int) (seedOutcome, error) {
		seed := cfg.seed + int64(i)
		var source ttmqo.Source
		if cfg.fieldCSV != "" {
			f, err := os.Open(cfg.fieldCSV)
			if err != nil {
				return seedOutcome{}, err
			}
			source, err = ttmqo.LoadTraceCSV(f)
			f.Close()
			if err != nil {
				return seedOutcome{}, err
			}
		}
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo:           cfg.topo,
			Scheme:         cfg.scheme,
			Seed:           seed,
			Alpha:          cfg.alpha,
			Source:         source,
			DiscardResults: true,
			Failures:       cfg.failures,
		})
		if err != nil {
			return seedOutcome{}, err
		}
		if cfg.scenario != nil {
			chaos.Inject(sim, cfg.scenario.EngineSteps())
		}
		ws, err := buildWorkload(cfg.workload, seed, cfg.queries, cfg.concurrency)
		if err != nil {
			return seedOutcome{}, err
		}
		sim.Schedule(ws)
		sim.Run(dur)
		return seedOutcome{
			Seed:            seed,
			AvgTxPct:        sim.AvgTransmissionTime() * 100,
			Messages:        sim.Metrics().Messages(),
			Retransmissions: sim.Metrics().Retransmissions(),
		}, nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("scheme=%s nodes=%d workload=%s simulated=%v runs=%d\n",
		cfg.scheme, cfg.topo.Size(), cfg.workload, dur, cfg.runs)
	fmt.Printf("%6s %10s %9s %8s\n", "seed", "avgTx(%)", "messages", "retrans")
	var tx stats.Series
	for _, r := range rows {
		tx.Add(r.AvgTxPct)
		fmt.Printf("%6d %10.4f %9d %8d\n", r.Seed, r.AvgTxPct, r.Messages, r.Retransmissions)
	}
	fmt.Printf("avg transmission time: %s\n", tx.String())
	fmt.Printf("timing: %s\n", tm.String())
	if cfg.jsonOut != "" {
		m := ttmqo.SweepManifest("sim", cfg.seed, dur, cfg.runs)
		m.Scheme = cfg.scheme.String()
		m.Nodes = cfg.topo.Size()
		m.Workload = cfg.workload
		if cfg.scenario != nil {
			m.Chaos = cfg.scenario.Name
		}
		m.Alpha = cfg.alpha
		f, err := os.Create(cfg.jsonOut)
		if err != nil {
			return err
		}
		if err := ttmqo.WriteSweepJSON(f, m.Hashed(), ttmqo.SweepStudy{Name: "seeds", Rows: rows}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("json: %s\n", cfg.jsonOut)
	}
	return nil
}
