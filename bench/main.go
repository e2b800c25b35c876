// Command bench is the repository's end-to-end benchmark: it builds each
// workload's serving stack in-process, drives it over real TCP connections
// with a closed-loop driver in place of the wall-clock pacer, checks every
// delivered result, and prints socket-to-socket metrics plus a per-layer
// ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// setupRepeats is how many times a run sets the stack up; setup_s is the
// median, so one slow build does not read as a regression.
const setupRepeats = 15

// options selects what one invocation measures.
type options struct {
	seed    int64
	seconds float64
	// scale > 0 fixes the work at scale*refRounds (exact counts repeat);
	// 0 measures for `seconds`.
	scale    float64
	e2e      bool // untraced run → end-to-end metrics
	layers   bool // traced run → per-layer metrics
	setups   int
	traceOut string
}

// workloadResult is one workload's outcome, as -json stores it and
// -compare reads it.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	FixedWork bool    `json:"fixed_work"`
	Rounds    int     `json:"rounds"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	Detail    string  `json:"fail_detail,omitempty"`
	Samples   int     `json:"ttfr_samples"`
	// HostSpeed is the untraced run's calibration factor: timings are in
	// reference time, raw wall time = reported time / HostSpeed.
	HostSpeed float64            `json:"host_speed,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Fingerprint is the FNV-1a result fingerprint of the untraced run
	// (and, with TraceRounds, of the untraced slice the traced run must
	// reproduce).
	Fingerprint      string `json:"result_fingerprint,omitempty"`
	TraceRounds      int    `json:"trace_rounds,omitempty"`
	TraceFingerprint string `json:"trace_result_fingerprint,omitempty"`
}

func (w *workloadResult) account(res *runResult) {
	w.Attempted += res.requests + res.expected
	w.Failed += res.failed
	if res.failed > 0 {
		w.Detail += res.failDetail + "; "
	}
}

func (o *options) runOpts(s *spec, share float64, tr *tracer) runOpts {
	if o.scale > 0 {
		n := int(math.Round(float64(s.refRounds) * o.scale * share / blockRounds))
		return runOpts{rounds: max(1, n) * blockRounds, tr: tr}
	}
	return runOpts{seconds: o.seconds * share, tr: tr}
}

// runWorkload measures one workload.
func runWorkload(s *spec, o options) (*workloadResult, error) {
	w := &workloadResult{Workload: s.name, Seed: o.seed, FixedWork: o.scale > 0}
	if o.e2e {
		setups := make([]float64, 0, o.setups)
		for i := 1; i < o.setups; i++ {
			r := newRun(s, o.seed, runOpts{})
			err := r.setup()
			r.teardown()
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
			}
			setups = append(setups, r.res.setupS)
		}
		r, err := serve(s, o.seed, o.runOpts(s, 1, nil))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		setups = append(setups, r.res.setupS)
		w.account(&r.res)
		w.Rounds = r.res.rounds
		w.Samples = len(r.res.ttfrMS)
		w.HostSpeed = r.res.hostSpeed
		w.Fingerprint = fmt.Sprintf("%016x", r.res.fingerprint)
		w.EndToEnd = endToEndMetrics(&r.res, median(setups))
	}
	if o.layers {
		// A quarter-length untraced slice, then the same rounds traced: the
		// two must deliver identical results, and the difference in their
		// round rates is the tracing overhead.
		u, err := serve(s, o.seed, o.runOpts(s, 0.25, nil))
		if err != nil {
			return nil, fmt.Errorf("%s: untraced slice: %w", s.name, err)
		}
		w.account(&u.res)
		tr := newTracer(s)
		t, err := serve(s, o.seed, runOpts{rounds: u.res.rounds, tr: tr})
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", s.name, err)
		}
		w.account(&t.res)
		tr.finish()
		w.TraceRounds = t.res.rounds
		w.TraceFingerprint = fmt.Sprintf("%016x", t.res.fingerprint)
		if u.res.fingerprint != t.res.fingerprint {
			w.Failed++
			w.Detail += fmt.Sprintf("traced fingerprint %016x != untraced %016x; ", t.res.fingerprint, u.res.fingerprint)
		}
		if !o.e2e {
			w.Rounds, w.Samples = u.res.rounds, len(t.res.ttfrMS)
			w.Fingerprint = fmt.Sprintf("%016x", u.res.fingerprint)
		}
		w.PerLayer, err = layerMetrics(t, tr, u.res.roundRate)
		if err != nil {
			return nil, fmt.Errorf("%s: layer metrics: %w", s.name, err)
		}
		if o.traceOut != "" {
			if err := tr.write(o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	w.Correct = w.Failed == 0
	w.FailRatio = ratio(float64(w.Failed), float64(w.Attempted))
	return w, nil
}

func (w *workloadResult) print() {
	fmt.Printf("\n== %s  seed=%d rounds=%d fixed_work=%v\n", w.Workload, w.Seed, w.Rounds, w.FixedWork)
	table := func(title string, defs []metricDef, vals map[string]float64) {
		if vals == nil {
			return
		}
		fmt.Printf("-- %s\n", title)
		for _, d := range defs {
			fmt.Printf("  %-40s %16.6g %-6s", d.Name, vals[d.Name], d.Unit)
			if d.Moves != "" {
				fmt.Printf("  -> %s", d.Moves)
			}
			fmt.Println()
		}
	}
	table("end to end (untraced)", endToEnd, w.EndToEnd)
	table("per layer (traced)", perLayer, w.PerLayer)
	fmt.Printf("  %-40s %16.6g ratio  (%d failed of %d attempted)\n", "fail_ratio", w.FailRatio, w.Failed, w.Attempted)
	fmt.Printf("  %-40s %16d count\n", "ttfr_samples", w.Samples)
	if w.HostSpeed > 0 {
		fmt.Printf("  %-40s %16.6g ratio  (end-to-end timings are reference time; raw = reported / host_speed)\n", "host_speed", w.HostSpeed)
	}
	fmt.Printf("  %-40s %16s\n", "result_fingerprint", w.Fingerprint)
	if w.TraceFingerprint != "" {
		fmt.Printf("  %-40s %16s  (%d rounds, traced)\n", "trace_result_fingerprint", w.TraceFingerprint, w.TraceRounds)
	}
	if w.Detail != "" {
		fmt.Printf("  FAILED: %s\n", w.Detail)
	}
}

// resultFile is the -json document.
type resultFile struct {
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []*workloadResult `json:"workloads"`
}

// driverLine is the contract's last line of output for a single-workload
// run: --trace 0 carries every end-to-end metric, --trace 1 every
// per-layer metric.
func driverLine(w *workloadResult, traced bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, w.EndToEnd
	if traced {
		defs, vals = perLayer, w.PerLayer
	}
	ms := make(map[string]mv, len(defs))
	for _, d := range defs {
		ms[d.Name] = mv{vals[d.Name], d.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, ms})
	return string(b)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "one of sim_heavy, fanout_heavy, full_stack, churn (default: all four)")
	seed := flag.Int64("seed", 1, "generates the query texts and seeds the simulated world")
	seconds := flag.Float64("seconds", 10, "length of the measured window of each untraced run")
	trace := flag.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	scale := flag.Float64("rounds-scale", 0, "fixed work instead of fixed time: run this multiple of each workload's reference rounds (1 ≈ 20 s); exact metrics and fingerprints then repeat")
	traceOut := flag.String("trace-out", "", "write the traced run's spans here (default .bench_build/trace-<workload>.json)")
	jsonOut := flag.String("json", "", "also write every result to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale, setups: setupRepeats}
	switch *trace {
	case "0":
		o.e2e = true
	case "1":
		o.layers = true
	case "both":
		o.e2e, o.layers = true, true
	default:
		return fmt.Errorf("-trace must be 0, 1 or both")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	run := specs
	if *workload != "" {
		s, err := specByName(*workload)
		if err != nil {
			return err
		}
		run = []*spec{s}
	}

	out := resultFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	ok := true
	for _, s := range run {
		o.traceOut = *traceOut
		if o.traceOut == "" {
			o.traceOut = filepath.Join(".bench_build", "trace-"+s.name+".json")
		}
		w, err := runWorkload(s, o)
		if err != nil {
			return err
		}
		w.print()
		ok = ok && w.Correct
		out.Workloads = append(out.Workloads, w)
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(run) == 1 && *trace != "both" {
		fmt.Println(driverLine(out.Workloads[0], o.layers))
	}
	if !ok {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}
