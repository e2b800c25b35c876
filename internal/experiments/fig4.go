package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Fig4Config parametrizes the §4.3 adaptive-workload studies. They replay
// the workload's arrival/termination timeline against the tier-1 optimizer
// and the cost model alone — exactly the quantities Figure 4 reports
// (benefit ratio, synthetic query count), no packet simulation needed.
type Fig4Config struct {
	Seed int64
	// NumQueries per run (paper: 500).
	NumQueries int
	// Side of the deployment grid used for the cost model (default 4).
	Side int
	// Concurrencies lists the average concurrent query counts of the sweep
	// (default 8..48 step 8 — the paper's x axis).
	Concurrencies []int
	// Alphas lists the α values of the sweep (default 0.0..1.0 step 0.2).
	Alphas []float64
	// Runs averages each point over this many workload seeds (default 3).
	Runs int
	// Parallelism caps the worker pool running independent replays (<= 0:
	// one worker per CPU). Results are identical at any setting.
	Parallelism int
	// Timing, when non-nil, receives the sweep's wall-clock accounting.
	Timing *runner.Timing
}

func (c *Fig4Config) setDefaults() {
	if c.NumQueries == 0 {
		c.NumQueries = 500
	}
	if c.Side == 0 {
		c.Side = 4
	}
	if len(c.Concurrencies) == 0 {
		c.Concurrencies = []int{8, 16, 24, 32, 40, 48}
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{0.0001, 0.2, 0.4, 0.6, 0.8, 1.0}
	}
	if c.Runs == 0 {
		c.Runs = 3
	}
}

// Fig4Point is one point of a Figure 4 series.
type Fig4Point struct {
	Concurrency int
	Alpha       float64
	// BenefitRatio is Σbenefit / Σcost over the run (Figure 4(a)/(b)),
	// net of re-injection flooding overhead; BenefitStd is its sample
	// standard deviation across workload seeds.
	BenefitRatio float64
	BenefitStd   float64
	// AvgSynthetic is the time-averaged number of running synthetic
	// queries (Figure 4(c)).
	AvgSynthetic float64
	// AvgConcurrent is the measured time-averaged number of live user
	// queries (sanity check on the x axis).
	AvgConcurrent float64
	// Reinjections counts synthetic queries (re)injected into the network
	// after the initial insert of each user query.
	Reinjections int
}

// timeline replays a workload through the optimizer, integrating user cost,
// synthetic cost and synthetic count over virtual time and charging each
// injected/aborted synthetic query a network-wide flooding cost.
func timeline(ws []workload.TimedQuery, side int, alpha float64) (Fig4Point, error) {
	topo, err := topology.PaperGrid(side)
	if err != nil {
		return Fig4Point{}, err
	}
	model, err := cost.NewModel(topo.LevelSizes(), cost.Config{})
	if err != nil {
		return Fig4Point{}, err
	}
	opt := core.NewOptimizer(model, core.Options{Alpha: alpha})

	type event struct {
		at     time.Duration
		arrive bool
		q      query.Query
	}
	events := make([]event, 0, 2*len(ws))
	var end time.Duration
	for _, w := range ws {
		events = append(events, event{at: w.Arrive, arrive: true, q: w.Query})
		dep := w.Depart
		if dep == 0 {
			continue
		}
		events = append(events, event{at: dep, q: w.Query})
		if dep > end {
			end = dep
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })

	// floodCost charges one network-wide propagation/abortion flood: every
	// node transmits once (§3.1.4 calls these "costly operations").
	floodCost := func(q query.Query) float64 {
		perMsg := cost.DefaultCstart.Seconds() +
			cost.DefaultCtrans.Seconds()*float64(cost.MsgLen(q)+9)
		return float64(topo.Size()) * perMsg
	}

	var (
		userInt, synInt, synCntInt, userCntInt float64 // time integrals
		overhead                               float64
		reinjections                           int
		last                                   time.Duration
	)
	for _, ev := range events {
		dt := (ev.at - last).Seconds()
		if dt > 0 {
			userInt += opt.TotalUserCost() * dt
			synInt += opt.TotalSyntheticCost() * dt
			synCntInt += float64(opt.SyntheticCount()) * dt
			userCntInt += float64(opt.UserCount()) * dt
			last = ev.at
		}
		var ch core.Change
		var err error
		if ev.arrive {
			ch, err = opt.Insert(ev.q)
		} else {
			ch, err = opt.Terminate(ev.q.ID)
		}
		if err != nil {
			return Fig4Point{}, err
		}
		for _, q := range ch.Inject {
			overhead += floodCost(q)
		}
		for range ch.Abort {
			overhead += floodCost(query.Query{})
		}
		if !ev.arrive {
			reinjections += len(ch.Inject)
		}
	}

	span := end.Seconds()
	if span <= 0 {
		return Fig4Point{}, fmt.Errorf("experiments: empty workload span")
	}
	ratio := 0.0
	if userInt > 0 {
		ratio = (userInt - synInt - overhead) / userInt
	}
	return Fig4Point{
		Alpha:         alpha,
		BenefitRatio:  ratio,
		AvgSynthetic:  synCntInt / span,
		AvgConcurrent: userCntInt / span,
		Reinjections:  reinjections,
	}, nil
}

// pointSpec is one (concurrency, α) point of a Figure 4 sweep.
type pointSpec struct {
	concurrency int
	alpha       float64
}

// runPoints replays every (point, seed) cell across the worker pool —
// each replay is an independent optimizer world — and folds the per-point
// averages afterwards in fixed seed order, so the output is identical at
// any parallelism.
func runPoints(cfg Fig4Config, specs []pointSpec) ([]Fig4Point, error) {
	type cell struct {
		spec int
		run  int
	}
	var cells []cell
	for s := range specs {
		for r := 0; r < cfg.Runs; r++ {
			cells = append(cells, cell{s, r})
		}
	}
	raw, err := sweep(cfg.Parallelism, cfg.Timing, cells, func(c cell) (Fig4Point, error) {
		ws := workload.Random(workload.RandomConfig{
			Seed:              cfg.Seed + int64(c.run)*7919,
			NumQueries:        cfg.NumQueries,
			TargetConcurrency: specs[c.spec].concurrency,
		})
		return timeline(ws, cfg.Side, specs[c.spec].alpha)
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig4Point, 0, len(specs))
	for s, spec := range specs {
		var benefit, syn, conc stats.Series
		reinj := 0
		for r := 0; r < cfg.Runs; r++ {
			p := raw[s*cfg.Runs+r]
			benefit.Add(p.BenefitRatio)
			syn.Add(p.AvgSynthetic)
			conc.Add(p.AvgConcurrent)
			reinj += p.Reinjections
		}
		out = append(out, Fig4Point{
			Concurrency:   spec.concurrency,
			Alpha:         spec.alpha,
			BenefitRatio:  benefit.Mean(),
			BenefitStd:    benefit.Stddev(),
			AvgSynthetic:  syn.Mean(),
			AvgConcurrent: conc.Mean(),
			Reinjections:  reinj / cfg.Runs,
		})
	}
	return out, nil
}

// RunFigure4A sweeps the number of concurrent queries at α = 0.6
// (Figure 4(a): benefit ratio rising from ≈32 % at 8 queries to ≈82 % at
// 48).
func RunFigure4A(cfg Fig4Config) ([]Fig4Point, error) {
	cfg.setDefaults()
	specs := make([]pointSpec, 0, len(cfg.Concurrencies))
	for _, c := range cfg.Concurrencies {
		specs = append(specs, pointSpec{c, core.DefaultAlpha})
	}
	return runPoints(cfg, specs)
}

// RunFigure4B sweeps α at 8 concurrent queries (Figure 4(b): an interior
// maximum near α = 0.6 — too small forces rewrites that lose the old
// synthetic query's benefit, too large keeps fetching data nobody wants).
func RunFigure4B(cfg Fig4Config) ([]Fig4Point, error) {
	cfg.setDefaults()
	specs := make([]pointSpec, 0, len(cfg.Alphas))
	for _, a := range cfg.Alphas {
		specs = append(specs, pointSpec{8, a})
	}
	return runPoints(cfg, specs)
}

// RunFigure4C sweeps concurrency for α ∈ {0.2, 0.6, 1.0} and reports the
// average number of synthetic queries (Figure 4(c): fewer than 4 even at 48
// concurrent queries, decreasing slightly as α grows).
func RunFigure4C(cfg Fig4Config) ([]Fig4Point, error) {
	cfg.setDefaults()
	var specs []pointSpec
	for _, a := range []float64{0.2, 0.6, 1.0} {
		for _, c := range cfg.Concurrencies {
			specs = append(specs, pointSpec{c, a})
		}
	}
	return runPoints(cfg, specs)
}
