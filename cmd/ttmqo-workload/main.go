// Command ttmqo-workload generates, inspects and replays workload files —
// JSON documents of TinyDB-dialect queries with arrival/termination times,
// shareable across runs and hand-editable.
//
// Usage:
//
//	ttmqo-workload gen -out w.json [-kind random|A|B|C] [-queries N]
//	               [-concurrency C] [-seed S]
//	ttmqo-workload show w.json
//	ttmqo-workload run w.json [-scheme ttmqo] [-side N] [-minutes M] [-seed S]
//	               [-compare] [-parallel P] [-json out.json]
//
// With -compare, run executes the workload under every scheme — fanned
// across -parallel workers (0 = one per CPU; the table is identical at any
// setting) — and prints a comparison table. -json exports the per-scheme
// rows plus a run manifest as machine-readable JSON; the bytes are
// identical at any -parallel setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	ttmqo "repro"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttmqo-workload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ttmqo-workload gen|show|run ... (see -h)")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:])
	case "show":
		return showCmd(args[1:])
	case "run":
		return runCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "", "output file (required)")
	kind := fs.String("kind", "random", "random, A, B or C")
	queries := fs.Int("queries", 100, "number of queries (random)")
	concurrency := fs.Int("concurrency", 8, "average concurrent queries (random)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	var ws []ttmqo.TimedQuery
	switch *kind {
	case "random":
		ws = ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{
			Seed:              *seed,
			NumQueries:        *queries,
			TargetConcurrency: *concurrency,
		})
	case "A":
		ws = ttmqo.WorkloadA()
	case "B":
		ws = ttmqo.WorkloadB()
	case "C":
		ws = ttmqo.WorkloadC()
	default:
		return fmt.Errorf("gen: unknown kind %q", *kind)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.SaveJSON(f, ws); err != nil {
		return err
	}
	fmt.Printf("wrote %d queries to %s\n", len(ws), *out)
	return nil
}

func loadFile(path string) ([]ttmqo.TimedQuery, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.LoadJSON(f)
}

func showCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: ttmqo-workload show <file>")
	}
	ws, err := loadFile(args[0])
	if err != nil {
		return err
	}
	var span time.Duration
	aggs := 0
	for _, w := range ws {
		if w.Depart > span {
			span = w.Depart
		}
		if w.Query.IsAggregation() {
			aggs++
		}
		arrive := "t=0"
		if w.Arrive > 0 {
			arrive = "t=" + w.Arrive.Round(time.Second).String()
		}
		life := "forever"
		if w.Depart > 0 {
			life = "until " + w.Depart.Round(time.Second).String()
		}
		fmt.Printf("  q%-4d %-10s %-14s %s\n", w.Query.ID, arrive, life, w.Query)
	}
	fmt.Printf("%d queries (%d aggregation), span %v\n", len(ws), aggs, span.Round(time.Second))
	return nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	schemeName := fs.String("scheme", "ttmqo", "baseline, base-station, in-network or ttmqo")
	side := fs.Int("side", 4, "grid side length")
	minutes := fs.Int("minutes", 0, "simulated minutes (0 = workload span + 1 min)")
	seed := fs.Int64("seed", 1, "random seed")
	compare := fs.Bool("compare", false, "run under every scheme and compare")
	parallel := fs.Int("parallel", 0, "worker pool size for -compare (0 = one worker per CPU)")
	jsonOut := fs.String("json", "", "export the per-scheme rows + manifest as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: ttmqo-workload run [flags] <file>")
	}
	ws, err := loadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	topo, err := ttmqo.PaperGrid(*side)
	if err != nil {
		return err
	}
	dur := time.Duration(*minutes) * time.Minute
	if dur == 0 {
		for _, w := range ws {
			if w.Depart > dur {
				dur = w.Depart
			}
		}
		if dur == 0 {
			dur = 9 * time.Minute
		}
		dur += time.Minute
	}

	schemes := network.AllSchemes()
	if !*compare {
		sc, err := network.ParseScheme(*schemeName)
		if err != nil {
			return err
		}
		schemes = []ttmqo.Scheme{sc}
	}

	// Each scheme is an independent simulation world; fan them across the
	// worker pool and print in input order (savings are computed after the
	// fact, so the parallel table matches the serial one byte for byte).
	type outcome struct {
		Scheme          string  `json:"scheme"`
		AvgTxPct        float64 `json:"avg_tx_pct"`
		SavingsPct      float64 `json:"savings_pct"`
		Messages        int     `json:"messages"`
		Retransmissions int     `json:"retransmissions"`
	}
	var tm runner.Timing
	rows, err := runner.MapTimed(*parallel, len(schemes), &tm, func(i int) (outcome, error) {
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo:           topo,
			Scheme:         schemes[i],
			Seed:           *seed,
			DiscardResults: true,
		})
		if err != nil {
			return outcome{}, err
		}
		sim.Schedule(ws)
		sim.Run(dur)
		return outcome{
			Scheme:          schemes[i].String(),
			AvgTxPct:        sim.AvgTransmissionTime() * 100,
			Messages:        sim.Metrics().Messages(),
			Retransmissions: sim.Metrics().Retransmissions(),
		}, nil
	})
	if err != nil {
		return err
	}
	var baseline float64
	fmt.Printf("%-13s %10s %9s %9s %8s\n", "scheme", "avgTx(%)", "save(%)", "messages", "retrans")
	for i, sc := range schemes {
		if sc == ttmqo.SchemeBaseline {
			baseline = rows[i].AvgTxPct
		}
		rows[i].SavingsPct = metrics.Savings(baseline, rows[i].AvgTxPct) * 100
		fmt.Printf("%-13s %10.4f %9.1f %9d %8d\n",
			sc, rows[i].AvgTxPct, rows[i].SavingsPct,
			rows[i].Messages, rows[i].Retransmissions)
	}
	if *compare {
		fmt.Printf("timing: %s\n", tm.String())
	}
	if *jsonOut != "" {
		m := ttmqo.SweepManifest("workload", *seed, dur, 1)
		m.Nodes = topo.Size()
		m.Workload = fs.Arg(0)
		if len(schemes) == 1 {
			m.Scheme = schemes[0].String()
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := ttmqo.WriteSweepJSON(f, m.Hashed(), ttmqo.SweepStudy{Name: "schemes", Rows: rows}); err != nil {
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
