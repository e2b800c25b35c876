// Command ttmqo-workload generates and inspects workload files — JSON
// documents of TinyDB-dialect queries with arrival/termination times,
// shareable across runs and hand-editable. ttmqo-sim -workload w.json runs
// one (-compare: under every scheme).
//
// Usage:
//
//	ttmqo-workload gen -out w.json [-kind random|A|B|C] [-queries N]
//	               [-concurrency C] [-seed S]
//	ttmqo-workload show w.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	ttmqo "repro"
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
		return fmt.Errorf("usage: ttmqo-workload gen|show ... (see -h)")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:])
	case "show":
		return showCmd(args[1:])
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
	var err error
	if *kind == "random" {
		ws = ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{
			Seed:              *seed,
			NumQueries:        *queries,
			TargetConcurrency: *concurrency,
		})
	} else {
		ws, err = workload.ByName(*kind)
	}
	if err != nil {
		return fmt.Errorf("gen: %w", err)
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
