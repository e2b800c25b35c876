// Command ttmqo-sim runs sensor-network simulation scenarios and prints
// their radio accounting and result statistics: one scheme at one seed in
// detail, one scheme over a run of seeds, or every scheme at one seed.
//
// Usage:
//
//	ttmqo-sim [-side N] [-scheme baseline|base-station|in-network|ttmqo]
//	          [-workload A|B|C|random|w.json] [-minutes M] [-seed S] [-alpha A]
//	          [-concurrency C] [-queries Q] [-runs R | -compare] [-parallel P]
//	          [-v] [-mtbf D] [-mttr D] [-chaos scenario] [-trace out.csv]
//	          [-field in.csv] [-json out.json] [-series out.csv]
//	          [-sample 30s] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -workload is resolved the way -chaos is: a readable file is parsed as a
// workload JSON document (see ttmqo-workload gen), anything else names a
// static Figure 3 workload (A, B, C), which runs for the whole interval, or
// the §4.3 adaptive workload (random), whose arrivals and terminations are
// drawn from the seed, -queries and -concurrency. -minutes 0 simulates the
// workload's span at seed S plus one minute (10 minutes when no query
// departs).
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
// With -runs R > 1 the scenario is replayed under seeds S..S+R-1 and a
// per-seed summary table is printed instead of the single-run detail. With
// -compare it runs under every scheme at seed S and a comparison table is
// printed: each scheme's average transmission time, its saving against the
// baseline row, messages and retransmissions. Either table fans its cells
// across -parallel workers (0 = one per CPU) and is identical at any
// setting; -compare and -runs > 1 do not combine.
//
// -json writes a machine-readable export: for a single run, the manifest,
// final radio metrics, optimizer state and (when sampled) the time series;
// for a table, its rows under a sweep manifest. -series writes the
// virtual-time metrics series as CSV, sampled every -sample of simulated
// time. -cpuprofile/-memprofile write pprof profiles.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	ttmqo "repro"
	"repro/internal/chaos"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workload"
)

// loadScenario resolves -chaos: a readable file is parsed as scenario text,
// anything else is looked up as a builtin name.
func loadScenario(ref string) (*chaos.Scenario, error) {
	if b, err := os.ReadFile(ref); err == nil {
		return chaos.ParseScenario(string(b))
	}
	return chaos.Builtin(ref)
}

// loadWorkload resolves -workload for one seed: a readable file is parsed
// as a workload JSON document, "random" draws the §4.3 workload from the
// seed, anything else is looked up as a Figure 3 letter. Every call builds
// a fresh list, so concurrent cells share no queries.
func loadWorkload(ref string, seed int64, queries, concurrency int) ([]ttmqo.TimedQuery, error) {
	if b, err := os.ReadFile(ref); err == nil {
		return workload.LoadJSON(bytes.NewReader(b))
	}
	if ref == "random" {
		return ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{
			Seed:              seed,
			NumQueries:        queries,
			TargetConcurrency: concurrency,
		}), nil
	}
	return workload.ByName(ref)
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
	workloadRef := flag.String("workload", "C", "A, B, C, random or a workload JSON file")
	minutes := flag.Int("minutes", 10, "simulated minutes (0 = workload span + 1 min)")
	seed := flag.Int64("seed", 1, "random seed")
	alpha := flag.Float64("alpha", ttmqo.DefaultAlpha, "termination parameter α")
	concurrency := flag.Int("concurrency", 8, "average concurrent queries (random workload)")
	queries := flag.Int("queries", 100, "total queries (random workload)")
	runs := flag.Int("runs", 1, "replay the scenario under seeds S..S+R-1 (summary table when > 1)")
	compare := flag.Bool("compare", false, "run under every scheme at the one seed and print a comparison table")
	parallel := flag.Int("parallel", 0, "worker pool size for -runs and -compare (0 = one worker per CPU)")
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
			runtime.GC()
			if err := writeFile(*memprofile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *compare && *runs > 1 {
		return fmt.Errorf("-compare runs every scheme at one seed; it does not combine with -runs %d", *runs)
	}
	scheme, err := network.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	topo, err := ttmqo.PaperGrid(*side)
	if err != nil {
		return err
	}
	sc := &scenario{
		topo: topo, workload: *workloadRef, queries: *queries, concurrency: *concurrency,
		alpha: *alpha, fieldCSV: *fieldCSV, failures: ttmqo.FailureConfig{MTBF: *mtbf, MTTR: *mttr},
		dur: time.Duration(*minutes) * time.Minute,
	}
	if *chaosRef != "" {
		sc.chaos, err = loadScenario(*chaosRef)
		if err != nil {
			return err
		}
		if len(sc.chaos.Crashes()) > 0 {
			return fmt.Errorf("scenario %q has gateway crash steps and ttmqo-sim has no gateway; use ttmqo-serve (-wal, -crash-after) or ttmqo-bench -fig chaos", sc.chaos.Name)
		}
		if sc.chaos.Seed != 0 {
			*seed = sc.chaos.Seed
		}
	}
	if sc.dur == 0 {
		ws, err := loadWorkload(sc.workload, *seed, sc.queries, sc.concurrency)
		if err != nil {
			return err
		}
		for _, w := range ws {
			sc.dur = max(sc.dur, w.Depart)
		}
		if sc.dur == 0 {
			sc.dur = 9 * time.Minute
		}
		sc.dur += time.Minute
	}

	if *compare {
		return sc.compareSchemes(*seed, *parallel, *jsonOut)
	}
	if *runs > 1 {
		return sc.replaySeeds(scheme, *seed, *runs, *parallel, *jsonOut)
	}
	d := detail{results: *verbose}
	if *traceOut != "" {
		d.trace = ttmqo.NewTrace(-1) // every event of the run
	}
	if *seriesOut != "" || *jsonOut != "" {
		d.sample = *sample
	}
	c, err := sc.simulate(scheme, *seed, d)
	if err != nil {
		return err
	}
	sim := c.sim

	fmt.Printf("scheme=%s nodes=%d workload=%s simulated=%v wall=%v\n",
		scheme, topo.Size(), sc.workload, sc.dur, c.wall.Round(time.Millisecond))
	fmt.Printf("avg transmission time: %.4f%%\n", sim.AvgTransmissionTime()*100)
	if *mtbf > 0 {
		fmt.Printf("failures: %d injected (mtbf=%v mttr=%v)\n", sim.Failures(), *mtbf, *mttr)
	}
	if sc.chaos != nil {
		fmt.Printf("chaos: scenario=%s steps=%d horizon=%v\n",
			sc.chaos.Name, len(sc.chaos.Steps), sc.chaos.Horizon())
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
	if d.trace != nil {
		if err := writeFile(*traceOut, d.trace.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("trace: %s (%s)\n", *traceOut, d.trace.Summary())
	}
	if *verbose {
		for _, w := range c.ws {
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
		if err := writeFile(*seriesOut, c.series.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("series: %s (%d samples)\n", *seriesOut, c.series.Len())
	}
	if *jsonOut != "" {
		var chaosName string
		if sc.chaos != nil {
			chaosName = sc.chaos.Name
		}
		re := sim.Export("sim", sc.workload, chaosName)
		if err := writeFile(*jsonOut, func(w io.Writer) error { return ttmqo.WriteJSON(w, re) }); err != nil {
			return err
		}
		fmt.Printf("json: %s\n", *jsonOut)
	}
	return nil
}

// scenario is what every cell of one invocation shares: all of a
// simulation but its scheme and seed.
type scenario struct {
	topo                 *ttmqo.Topology
	workload             string
	queries, concurrency int
	alpha                float64
	fieldCSV             string
	failures             ttmqo.FailureConfig
	chaos                *chaos.Scenario
	dur                  time.Duration
}

// detail asks a cell for what only the detailed single run prints: the
// event log, the per-query results and a series sampled every sample of
// virtual time (none when zero).
type detail struct {
	trace   *ttmqo.Trace
	results bool
	sample  time.Duration
}

// cell is one simulation run to the scenario's end.
type cell struct {
	sim    *ttmqo.Simulation
	ws     []ttmqo.TimedQuery
	series *ttmqo.TimeSeries
	wall   time.Duration
}

// simulate builds, injects, schedules and runs one (scheme, seed)
// simulation: the only place this command builds one. Each cell is an
// independent world with its own source and workload, so a table's cells
// are identical at any parallelism.
func (sc *scenario) simulate(scheme ttmqo.Scheme, seed int64, d detail) (cell, error) {
	var source ttmqo.Source
	if sc.fieldCSV != "" {
		f, err := os.Open(sc.fieldCSV)
		if err != nil {
			return cell{}, err
		}
		source, err = ttmqo.LoadTraceCSV(f)
		f.Close()
		if err != nil {
			return cell{}, err
		}
	}
	sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
		Topo:           sc.topo,
		Scheme:         scheme,
		Seed:           seed,
		Alpha:          sc.alpha,
		Source:         source,
		DiscardResults: !d.results,
		Trace:          d.trace,
		Failures:       sc.failures,
	})
	if err != nil {
		return cell{}, err
	}
	if sc.chaos != nil {
		chaos.Inject(sim, sc.chaos.EngineSteps())
	}
	ws, err := loadWorkload(sc.workload, seed, sc.queries, sc.concurrency)
	if err != nil {
		return cell{}, err
	}
	sim.Schedule(ws)
	c := cell{sim: sim, ws: ws}
	if d.sample > 0 {
		c.series = sim.StartSeries(d.sample)
	}
	start := time.Now()
	sim.Run(sc.dur)
	c.wall = time.Since(start)
	return c, nil
}

// tally is one table cell's summary.
type tally struct {
	avgTxPct          float64
	messages, retrans int
}

// table runs n cells, cell i under at(i), fanned across the worker pool,
// and returns their summaries in input order.
func (sc *scenario) table(parallel, n int, at func(i int) (ttmqo.Scheme, int64)) ([]tally, runner.Timing, error) {
	var tm runner.Timing
	rows, err := runner.MapTimed(parallel, n, &tm, func(i int) (tally, error) {
		scheme, seed := at(i)
		c, err := sc.simulate(scheme, seed, detail{})
		if err != nil {
			return tally{}, err
		}
		m := c.sim.Metrics()
		return tally{c.sim.AvgTransmissionTime() * 100, m.Messages(), m.Retransmissions()}, nil
	})
	return rows, tm, err
}

// seedRow is one seed's summary row of the -runs table; exported fields
// so -json replays round-trip through encoding/json.
type seedRow struct {
	Seed            int64   `json:"seed"`
	AvgTxPct        float64 `json:"avg_tx_pct"`
	Messages        int     `json:"messages"`
	Retransmissions int     `json:"retransmissions"`
}

// replaySeeds prints and exports the -runs table: the scheme under seeds
// seed..seed+runs-1.
func (sc *scenario) replaySeeds(scheme ttmqo.Scheme, seed int64, runs, parallel int, jsonOut string) error {
	tallies, tm, err := sc.table(parallel, runs, func(i int) (ttmqo.Scheme, int64) {
		return scheme, seed + int64(i)
	})
	if err != nil {
		return err
	}
	fmt.Printf("scheme=%s nodes=%d workload=%s simulated=%v runs=%d\n",
		scheme, sc.topo.Size(), sc.workload, sc.dur, runs)
	fmt.Printf("%6s %10s %9s %8s\n", "seed", "avgTx(%)", "messages", "retrans")
	rows := make([]seedRow, len(tallies))
	var tx stats.Series
	for i, t := range tallies {
		rows[i] = seedRow{seed + int64(i), t.avgTxPct, t.messages, t.retrans}
		tx.Add(t.avgTxPct)
		fmt.Printf("%6d %10.4f %9d %8d\n", rows[i].Seed, t.avgTxPct, t.messages, t.retrans)
	}
	fmt.Printf("avg transmission time: %s\n", tx.String())
	fmt.Printf("timing: %s\n", tm.String())
	return sc.exportTable(jsonOut, scheme.String(), seed, runs, ttmqo.SweepStudy{Name: "seeds", Rows: rows})
}

// schemeRow is one scheme's row of the -compare table.
type schemeRow struct {
	Scheme          string  `json:"scheme"`
	AvgTxPct        float64 `json:"avg_tx_pct"`
	SavingsPct      float64 `json:"savings_pct"`
	Messages        int     `json:"messages"`
	Retransmissions int     `json:"retransmissions"`
}

// compareSchemes prints and exports the -compare table: every scheme at
// the one seed, each saving taken against the baseline row after all cells
// ran.
func (sc *scenario) compareSchemes(seed int64, parallel int, jsonOut string) error {
	schemes := network.AllSchemes()
	tallies, tm, err := sc.table(parallel, len(schemes), func(i int) (ttmqo.Scheme, int64) {
		return schemes[i], seed
	})
	if err != nil {
		return err
	}
	var baseline float64
	fmt.Printf("%-13s %10s %9s %9s %8s\n", "scheme", "avgTx(%)", "save(%)", "messages", "retrans")
	rows := make([]schemeRow, len(tallies))
	for i, t := range tallies {
		if schemes[i] == ttmqo.SchemeBaseline {
			baseline = t.avgTxPct
		}
		rows[i] = schemeRow{schemes[i].String(), t.avgTxPct, ttmqo.Savings(baseline, t.avgTxPct) * 100, t.messages, t.retrans}
		fmt.Printf("%-13s %10.4f %9.1f %9d %8d\n",
			schemes[i], t.avgTxPct, rows[i].SavingsPct, t.messages, t.retrans)
	}
	fmt.Printf("timing: %s\n", tm.String())
	return sc.exportTable(jsonOut, "", seed, 1, ttmqo.SweepStudy{Name: "schemes", Rows: rows})
}

// exportTable writes a table's rows to path under the scenario's sweep
// manifest (no file when path is empty). scheme is empty for -compare,
// whose rows span every scheme.
func (sc *scenario) exportTable(path, scheme string, seed int64, runs int, study ttmqo.SweepStudy) error {
	if path == "" {
		return nil
	}
	m := ttmqo.SweepManifest("sim", seed, sc.dur, runs)
	m.Scheme = scheme
	m.Nodes = sc.topo.Size()
	m.Workload = sc.workload
	if sc.chaos != nil {
		m.Chaos = sc.chaos.Name
	}
	m.Alpha = sc.alpha
	if err := writeFile(path, func(w io.Writer) error { return ttmqo.WriteSweepJSON(w, m.Hashed(), study) }); err != nil {
		return err
	}
	fmt.Printf("json: %s\n", path)
	return nil
}

// writeFile creates path and fills it with write, reporting the first
// failure of either or of the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
