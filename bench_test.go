package ttmqo_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	ttmqo "repro"
	"repro/internal/radio"
	"repro/internal/topology"
)

// Every figure of the paper's evaluation has a benchmark that regenerates
// it. The benchmarks log the reproduced series (run with -v or read
// EXPERIMENTS.md for the recorded numbers) and time one full regeneration.

// BenchmarkFigure2Example regenerates the §3.2.2 worked example: 20→12
// acquisition messages (8→6 nodes) and 14→7 aggregation messages.
func BenchmarkFigure2Example(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := ttmqo.RunFigure2Example()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-7s acq=%d/%d nodes=%d/%d agg=%d/%d", r.Mode,
					r.AcqMessages, r.WantAcqMessages,
					r.AcqNodes, r.WantAcqNodes,
					r.AggMessages, r.WantAggMessages)
			}
		}
	}
}

// BenchmarkFigure3 regenerates the average-transmission-time bars for one
// (workload, size) cell per sub-benchmark.
func BenchmarkFigure3(b *testing.B) {
	for _, w := range []string{"A", "B", "C"} {
		for _, side := range []int{4, 8} {
			b.Run(fmt.Sprintf("workload%s/%dnodes", w, side*side), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rows, err := ttmqo.RunFigure3(ttmqo.Fig3Config{
						Seed:      1,
						Duration:  5 * time.Minute,
						Sides:     []int{side},
						Workloads: []string{w},
					})
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						for _, r := range rows {
							b.Logf("%-13s avgTx=%.4f%% save=%.1f%%", r.Scheme, r.AvgTxPct, r.SavingsPct)
						}
					}
				}
			})
		}
	}
}

// BenchmarkFigure3Parallel regenerates the full Figure 3 sweep (24 cells)
// at one worker and at one worker per CPU. The ratio of the two is the
// parallel runner's end-to-end speedup on this machine; the rows are
// identical either way.
func BenchmarkFigure3Parallel(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ttmqo.RunFigure3(ttmqo.Fig3Config{
					Seed: 1, Duration: 2 * time.Minute, Parallelism: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4A regenerates the benefit-ratio-versus-concurrency curve.
func BenchmarkFigure4A(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := ttmqo.RunFigure4A(ttmqo.Fig4Config{Seed: 1, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("concurrency=%d benefit=%.1f%%", p.Concurrency, p.BenefitRatio*100)
			}
		}
	}
}

// BenchmarkFigure4B regenerates the benefit-ratio-versus-α curve.
func BenchmarkFigure4B(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := ttmqo.RunFigure4B(ttmqo.Fig4Config{Seed: 1, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("alpha=%.2f benefit=%.1f%% reinjections=%d", p.Alpha, p.BenefitRatio*100, p.Reinjections)
			}
		}
	}
}

// BenchmarkFigure4C regenerates the synthetic-query-count curves.
func BenchmarkFigure4C(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := ttmqo.RunFigure4C(ttmqo.Fig4Config{Seed: 1, Runs: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, p := range pts {
				b.Logf("alpha=%.1f concurrency=%d avgSyn=%.2f", p.Alpha, p.Concurrency, p.AvgSynthetic)
			}
		}
	}
}

// BenchmarkFigure5 regenerates one selectivity series per mix.
func BenchmarkFigure5(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("agg%.0f%%", frac*100), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := ttmqo.RunFigure5(ttmqo.Fig5Config{
					Seed:         1,
					Duration:     5 * time.Minute,
					Runs:         1,
					AggFractions: []float64{frac},
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, r := range rows {
						b.Logf("sel=%.1f save=%.1f%%", r.Selectivity, r.SavingsPct)
					}
				}
			}
		})
	}
}

// BenchmarkAblation regenerates the tier-2 mechanism ablation (DESIGN.md's
// design-choice study).
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := ttmqo.RunAblation(ttmqo.AblationConfig{Seed: 1, Duration: 4 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-12s avgTx=%.4f%% vs-full=%+.1f%%", r.Variant, r.AvgTxPct, r.DeltaPct)
			}
		}
	}
}

// BenchmarkScaling regenerates the network-size scaling curve (extension).
func BenchmarkScaling(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := ttmqo.RunScaling(ttmqo.ScalingConfig{Seed: 1, Duration: 4 * time.Minute,
			Sides: []int{4, 8, 12}})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%3d nodes %-13s save=%.1f%% latency=%.0fms", r.Nodes, r.Scheme, r.SavingsPct, r.MeanLatencyMS)
			}
		}
	}
}

// --- Micro-benchmarks on the building blocks ---

// BenchmarkParseQuery measures the TinyDB-dialect parser.
func BenchmarkParseQuery(b *testing.B) {
	const q = "SELECT MAX(light), MIN(temp) FROM sensors WHERE 100 < light AND light < 600 AND temp >= 20 EPOCH DURATION 8192ms"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ttmqo.ParseQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerInsert measures tier-1 insertion throughput against a
// live table built from the §4.3 random workload.
func BenchmarkOptimizerInsert(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	model, err := ttmqo.NewCostModel(topo.LevelSizes(), ttmqo.CostConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ws := ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{Seed: 1, NumQueries: 64})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := ttmqo.NewOptimizer(model, ttmqo.OptimizerOptions{})
		for j, w := range ws {
			q := w.Query
			q.ID = ttmqo.QueryID(j + 1)
			if _, err := opt.Insert(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimizerChurn measures a full insert/terminate cycle.
func BenchmarkOptimizerChurn(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	model, err := ttmqo.NewCostModel(topo.LevelSizes(), ttmqo.CostConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ws := ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{Seed: 2, NumQueries: 32})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := ttmqo.NewOptimizer(model, ttmqo.OptimizerOptions{})
		for j, w := range ws {
			q := w.Query
			q.ID = ttmqo.QueryID(j + 1)
			if _, err := opt.Insert(q); err != nil {
				b.Fatal(err)
			}
		}
		for j := range ws {
			if _, err := opt.Terminate(ttmqo.QueryID(j + 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulationMinute measures packet-simulation throughput: one
// virtual minute of a 64-node network running workload C under TTMQO.
func BenchmarkSimulationMinute(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo: topo, Scheme: ttmqo.SchemeTTMQO, Seed: 1, DiscardResults: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range ttmqo.WorkloadC() {
			sim.PostAt(w.Arrive, w.Query)
		}
		sim.Run(time.Minute)
	}
}

// BenchmarkSimulationRound144 measures the simulator alone at the end-to-end
// benchmark's sim_heavy shape: one 2048 ms serving round of a 144-mote
// network carrying 16 §4.3 queries under TTMQO, past the install floods. It
// reports events/s and allocs/round, the numbers the benchmark's ledger
// prints as network.events_per_s and network.allocs_per_round, and the radio
// handler calls per delivered transmission (calls/tx).
func BenchmarkSimulationRound144(b *testing.B) {
	var qs []ttmqo.Query
	for _, w := range ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{Seed: 1, NumQueries: 16}) {
		qs = append(qs, w.Query)
	}
	benchSimulationRound(b, 12, qs)
}

// BenchmarkSimulationRoundAgg is the same round at the shape of one
// full_stack shard, where in-network aggregation is the work: 16 motes
// carrying a dozen overlapping region SUM/COUNT/AVG aggregates at
// 2048/4096/8192 ms, so partial states merge, pack and split at the relays.
func BenchmarkSimulationRoundAgg(b *testing.B) {
	var qs []ttmqo.Query
	for i := 0; i < 12; i++ {
		lo := 1 + (i*4)%11
		qs = append(qs, ttmqo.MustParseQuery(fmt.Sprintf(
			"SELECT SUM(light), COUNT(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %d",
			lo, min(lo+2+3*(i%4), 15), 2048<<(i%3))))
	}
	benchSimulationRound(b, 4, qs)
}

func benchSimulationRound(b *testing.B, side int, qs []ttmqo.Query) {
	topo, err := ttmqo.PaperGrid(side)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
		Topo: topo, Scheme: ttmqo.SchemeTTMQO, Seed: 1, DiscardResults: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range qs {
		if _, err := sim.Post(q); err != nil {
			b.Fatal(err)
		}
	}
	const round = 2048 * time.Millisecond
	sim.Run(64 * round)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fired := sim.Engine().Fired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(round)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(sim.Engine().Fired()-fired)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/round")

	// Handler calls are counted over eight more rounds, off the clock.
	calls := countHandlerCalls(b, sim)
	m := sim.Metrics()
	sent := m.Messages() - m.Retransmissions()
	sim.Run(8 * round)
	b.ReportMetric(float64(*calls)/float64(m.Messages()-m.Retransmissions()-sent), "calls/tx")
}

// countHandlerCalls wraps every radio handler of the simulation's medium in
// a counter. Neither the medium nor the simulation exposes such a count (or
// the medium), so the benchmark reaches the two unexported fields by
// reflection; renaming either fails here, loudly.
func countHandlerCalls(b *testing.B, sim *ttmqo.Simulation) *int {
	field := func(v reflect.Value, name string) any {
		f := v.Elem().FieldByName(name)
		if !f.IsValid() {
			b.Fatalf("countHandlerCalls: %v has no field %q", v.Type(), name)
		}
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface()
	}
	medium := field(reflect.ValueOf(sim), "medium").(*radio.Medium)
	calls := new(int)
	for id, h := range field(reflect.ValueOf(medium), "handlers").([]radio.Handler) {
		if h != nil {
			medium.SetHandler(topology.NodeID(id), func(d radio.Delivery) { *calls++; h(d) })
		}
	}
	return calls
}

// BenchmarkFieldReading measures the synthetic field generator under the
// simulator's access pattern: every node sampled at one shared epoch-aligned
// instant before the clock advances. The per-instant oscillator terms are
// memoized in a per-tick snapshot, so 62 of every 63 reads hit the cache.
func BenchmarkFieldReading(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	f := ttmqo.NewField(topo, ttmqo.FieldConfig{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := time.Duration(i/63) * 2048 * time.Millisecond
		_ = f.Reading(ttmqo.NodeID(1+i%63), ttmqo.AttrLight, t)
	}
}

// BenchmarkFieldReadingColdTick forces a tick-cache miss on every read (a
// fresh instant each call) — the memoization's worst case.
func BenchmarkFieldReadingColdTick(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	f := ttmqo.NewField(topo, ttmqo.FieldConfig{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Reading(ttmqo.NodeID(1+i%63), ttmqo.AttrLight, time.Duration(i)*time.Second)
	}
}

// BenchmarkFieldReadingCached measures the steady-state hit path: repeated
// reads at one fixed instant.
func BenchmarkFieldReadingCached(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	f := ttmqo.NewField(topo, ttmqo.FieldConfig{Seed: 1})
	const t = 4096 * time.Millisecond
	f.Reading(1, ttmqo.AttrLight, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Reading(ttmqo.NodeID(1+i%63), ttmqo.AttrLight, t)
	}
}

// BenchmarkReliability regenerates the node-failure QoS study (the paper's
// §5 future-work direction, built as an extension).
func BenchmarkReliability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := ttmqo.RunReliability(ttmqo.ReliabilityConfig{Seed: 1, Duration: 4 * time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.Logf("%-13s mtbf=%v completeness=%.1f%% failures=%d",
					r.Scheme, r.MTBF, r.Completeness*100, r.Failures)
			}
		}
	}
}

// BenchmarkGroupByEpoch measures grouped-aggregation processing: one virtual
// minute of a 64-node network running a GROUP BY dashboard.
func BenchmarkGroupByEpoch(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo: topo, Scheme: ttmqo.SchemeTTMQO, Seed: 1, DiscardResults: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := ttmqo.MustParseQuery("SELECT MAX(temp), AVG(temp) GROUP BY nodeid BUCKET 8 EPOCH DURATION 4096")
		sim.PostAt(0, mustID(q, 1))
		sim.Run(time.Minute)
	}
}

// BenchmarkWindowedEpoch measures windowed-aggregate processing.
func BenchmarkWindowedEpoch(b *testing.B) {
	topo, err := ttmqo.PaperGrid(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo: topo, Scheme: ttmqo.SchemeTTMQO, Seed: 1, DiscardResults: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		q := ttmqo.MustParseQuery("SELECT WINAVG(light, 8, 2) EPOCH DURATION 4096")
		sim.PostAt(0, mustID(q, 1))
		sim.Run(time.Minute)
	}
}

func mustID(q ttmqo.Query, id ttmqo.QueryID) ttmqo.Query {
	q.ID = id
	return q
}
