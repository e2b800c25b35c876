package network

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/topology"
	"repro/internal/tracing"
	"repro/internal/workload"
)

func grid4(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.PaperGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// newSim builds a simulation with collisions and maintenance disabled so
// message counts are exact.
func newSim(t *testing.T, topo *topology.Topology, scheme Scheme, seed int64) *Simulation {
	t.Helper()
	s, err := New(Config{
		Topo:                topo,
		Scheme:              scheme,
		Seed:                seed,
		MaintenanceInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Scheme: Baseline}); err == nil {
		t.Fatal("missing topology must error")
	}
	if _, err := New(Config{Topo: grid4(t)}); err == nil {
		t.Fatal("missing scheme must error")
	}
}

func TestSchemeParseRoundTrip(t *testing.T) {
	for _, sc := range AllSchemes() {
		got, err := ParseScheme(sc.String())
		if err != nil || got != sc {
			t.Fatalf("round trip %v failed: %v %v", sc, got, err)
		}
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("unknown scheme must error")
	}
}

func TestFloodInstallsEverywhere(t *testing.T) {
	s := newSim(t, grid4(t), Baseline, 1)
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)
	for i := 1; i < s.topo.Size(); i++ {
		got := s.Node(topology.NodeID(i)).Queries()
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("node %d queries = %v", i, got)
		}
	}
	// Flood cost: base station + one rebroadcast per node.
	if got := s.Metrics().MessagesOf("query"); got != s.topo.Size() {
		t.Fatalf("query messages = %d, want %d", got, s.topo.Size())
	}
}

func TestAbortUninstallsEverywhere(t *testing.T) {
	s := newSim(t, grid4(t), Baseline, 1)
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(time.Second)
	if err := s.Cancel(1); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics().MessagesOf("result")
	s.Run(20 * time.Second)
	for i := 1; i < s.topo.Size(); i++ {
		if got := s.Node(topology.NodeID(i)).Queries(); len(got) != 0 {
			t.Fatalf("node %d still has queries %v", i, got)
		}
	}
	if after := s.Metrics().MessagesOf("result"); after != before {
		t.Fatalf("result traffic after abort: %d -> %d", before, after)
	}
	if err := s.Cancel(1); err == nil {
		t.Fatal("double cancel must error")
	}
}

func TestBaselineAcquisitionEndToEnd(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, Baseline, 2)
	q := query.MustParse("SELECT nodeid, light EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)

	epochs := s.Results().RowsFor(1)
	if len(epochs) < 5 {
		t.Fatalf("delivered %d epochs, want >= 5", len(epochs))
	}
	// Every epoch must carry one row per sensor node (no predicate).
	for _, ep := range epochs {
		if len(ep.Rows) != topo.Size()-1 {
			t.Fatalf("epoch %v: %d rows, want %d", ep.Time, len(ep.Rows), topo.Size()-1)
		}
		for _, r := range ep.Rows {
			if v, _ := r.Values.Get(field.AttrNodeID); v != float64(r.Node) {
				t.Fatalf("row node mismatch: %v", r)
			}
		}
	}
	// Epoch timestamps: first at exactly one epoch after injection (t=0).
	if epochs[0].Time != 4096*time.Millisecond {
		t.Fatalf("first epoch at %v, want 4096ms", epochs[0].Time)
	}
}

func TestBaselineAggregationMatchesField(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, Baseline, 3)
	q := query.MustParse("SELECT MAX(light), MIN(light) EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)

	epochs := s.Results().AggsFor(1)
	if len(epochs) < 5 {
		t.Fatalf("delivered %d epochs", len(epochs))
	}
	for _, ep := range epochs {
		// Recompute ground truth from the field at the epoch time.
		truthMax, truthMin := math.Inf(-1), math.Inf(1)
		for i := 1; i < topo.Size(); i++ {
			v := s.source.Reading(topology.NodeID(i), field.AttrLight, ep.Time)
			truthMax = math.Max(truthMax, v)
			truthMin = math.Min(truthMin, v)
		}
		for _, r := range ep.Results {
			if r.Empty {
				t.Fatalf("empty aggregate at %v", ep.Time)
			}
			switch r.Agg.Op {
			case query.Max:
				if r.Value != truthMax {
					t.Fatalf("MAX at %v = %f, want %f", ep.Time, r.Value, truthMax)
				}
			case query.Min:
				if r.Value != truthMin {
					t.Fatalf("MIN at %v = %f, want %f", ep.Time, r.Value, truthMin)
				}
			}
		}
	}
}

func TestPredicateFiltersRows(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, Baseline, 4)
	// nodeid <= 5: exactly nodes 1..5 qualify.
	q := query.MustParse("SELECT nodeid WHERE nodeid >= 1 AND nodeid <= 5 EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	for _, ep := range s.Results().RowsFor(1) {
		if len(ep.Rows) != 5 {
			t.Fatalf("epoch %v: %d rows, want 5", ep.Time, len(ep.Rows))
		}
		for _, r := range ep.Rows {
			if r.Node < 1 || r.Node > 5 {
				t.Fatalf("unexpected node %d", r.Node)
			}
		}
	}
}

// The central correctness property (DESIGN.md invariant 5): with aligned
// arrivals and no collisions, every scheme delivers semantically identical
// user results.
func TestSchemeEquivalence(t *testing.T) {
	topo := grid4(t)
	queries := []string{
		"SELECT nodeid, light WHERE light >= 100 AND light <= 800 EPOCH DURATION 4096",
		"SELECT light WHERE light >= 200 AND light <= 600 EPOCH DURATION 8192",
		"SELECT MAX(light) WHERE light >= 100 AND light <= 800 EPOCH DURATION 8192",
		"SELECT MAX(temp), MIN(temp) WHERE temp >= 10 AND temp <= 90 EPOCH DURATION 4096",
		"SELECT AVG(light) WHERE light >= 100 AND light <= 800 GROUP BY nodeid BUCKET 4 EPOCH DURATION 8192",
		"SELECT WINAVG(temp, 4) WHERE temp >= 10 AND temp <= 90 EPOCH DURATION 8192",
	}
	const seed = 7
	const runFor = 60 * time.Second

	type resKey struct {
		qid query.ID
		t   time.Duration
	}
	run := func(scheme Scheme) (map[resKey][]query.Row, map[resKey][]query.AggResult) {
		s := newSim(t, topo, scheme, seed)
		for i, qs := range queries {
			q := query.MustParse(qs)
			q.ID = query.ID(i + 1)
			s.PostAt(0, q)
		}
		s.Run(runFor)
		rows := make(map[resKey][]query.Row)
		aggs := make(map[resKey][]query.AggResult)
		for i := range queries {
			qid := query.ID(i + 1)
			for _, ep := range s.Results().RowsFor(qid) {
				rows[resKey{qid, time.Duration(ep.Time)}] = ep.Rows
			}
			for _, ep := range s.Results().AggsFor(qid) {
				aggs[resKey{qid, time.Duration(ep.Time)}] = ep.Results
			}
		}
		return rows, aggs
	}

	baseRows, baseAggs := run(Baseline)
	if len(baseRows) == 0 || len(baseAggs) == 0 {
		t.Fatal("baseline produced no results")
	}
	for _, scheme := range []Scheme{BSOnly, InNetworkOnly, TTMQO} {
		rows, aggs := run(scheme)
		if len(rows) != len(baseRows) {
			t.Fatalf("%v: %d row epochs vs baseline %d", scheme, len(rows), len(baseRows))
		}
		for k, want := range baseRows {
			got, ok := rows[k]
			if !ok {
				t.Fatalf("%v: missing row epoch %+v", scheme, k)
			}
			if len(got) != len(want) {
				t.Fatalf("%v %+v: %d rows vs baseline %d", scheme, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Node != want[i].Node {
					t.Fatalf("%v %+v row %d: node %d vs %d", scheme, k, i, got[i].Node, want[i].Node)
				}
				want[i].Values.Each(func(a field.Attr, v float64) {
					if gv, ok := got[i].Values.Get(a); !ok || math.Abs(gv-v) > 1e-9 {
						t.Fatalf("%v %+v row %d attr %v: %f vs %f", scheme, k, i, a, gv, v)
					}
				})
			}
		}
		if len(aggs) != len(baseAggs) {
			t.Fatalf("%v: %d agg epochs vs baseline %d", scheme, len(aggs), len(baseAggs))
		}
		for k, want := range baseAggs {
			got, ok := aggs[k]
			if !ok || len(got) != len(want) {
				t.Fatalf("%v: agg epoch %+v mismatch", scheme, k)
			}
			for i := range want {
				if got[i].Agg != want[i].Agg || got[i].Empty != want[i].Empty || got[i].Group != want[i].Group {
					t.Fatalf("%v %+v agg %d: %+v vs %+v", scheme, k, i, got[i], want[i])
				}
				if !want[i].Empty && math.Abs(got[i].Value-want[i].Value) > 1e-9 {
					t.Fatalf("%v %+v agg %d: %f vs %f", scheme, k, i, got[i].Value, want[i].Value)
				}
			}
		}
	}
}

// Two identical acquisition queries: TTMQO must spend far fewer result
// messages than the baseline (the headline savings).
func TestSharingReducesMessages(t *testing.T) {
	topo := grid4(t)
	post := func(s *Simulation) {
		for i := 1; i <= 4; i++ {
			q := query.MustParse("SELECT nodeid, light EPOCH DURATION 4096")
			q.ID = query.ID(i)
			s.PostAt(0, q)
		}
	}
	base := newSim(t, topo, Baseline, 5)
	post(base)
	base.Run(60 * time.Second)

	opt := newSim(t, topo, TTMQO, 5)
	post(opt)
	opt.Run(60 * time.Second)

	bm := base.Metrics().MessagesOf("result")
	om := opt.Metrics().MessagesOf("result")
	if om >= bm/3 {
		t.Fatalf("TTMQO result messages = %d, baseline = %d; expected ~4x sharing", om, bm)
	}
	if opt.Optimizer().SyntheticCount() != 1 {
		t.Fatalf("4 identical queries should collapse to 1 synthetic, got %d", opt.Optimizer().SyntheticCount())
	}
	if base.AvgTransmissionTime() <= opt.AvgTransmissionTime() {
		t.Fatal("TTMQO must reduce average transmission time")
	}
}

func TestSleepMode(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, InNetworkOnly, 6)
	// A predicate nobody satisfies: light is in [0,1000], so every node
	// idles and (with the DAG policy) should eventually sleep.
	q := query.MustParse("SELECT light WHERE light >= 2000 EPOCH DURATION 2048")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	asleep := 0
	for i := 1; i < topo.Size(); i++ {
		if s.Node(topology.NodeID(i)).Asleep() {
			asleep++
		}
	}
	if asleep != topo.Size()-1 {
		t.Fatalf("asleep = %d, want all %d sensor nodes", asleep, topo.Size()-1)
	}
	if got := s.Metrics().MessagesOf("result"); got != 0 {
		t.Fatalf("result messages = %d, want 0", got)
	}
}

func TestDeterminism(t *testing.T) {
	topo := grid4(t)
	run := func() (int, float64) {
		s, err := New(Config{Topo: topo, Scheme: TTMQO, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			q := query.MustParse("SELECT light WHERE light >= 100 EPOCH DURATION 4096")
			q.ID = query.ID(i)
			s.PostAt(time.Duration(i)*time.Second, q)
		}
		s.Run(60 * time.Second)
		return s.Metrics().Messages(), s.AvgTransmissionTime()
	}
	m1, a1 := run()
	m2, a2 := run()
	if m1 != m2 || a1 != a2 {
		t.Fatalf("same seed diverged: (%d,%g) vs (%d,%g)", m1, a1, m2, a2)
	}
}

func TestMaintenanceBeacons(t *testing.T) {
	topo := grid4(t)
	s, err := New(Config{Topo: topo, Scheme: Baseline, Seed: 1,
		MaintenanceInterval: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60 * time.Second)
	if got := s.Metrics().MessagesOf("beacon"); got == 0 {
		t.Fatal("expected maintenance beacons")
	}
}

func TestPostAssignsIDs(t *testing.T) {
	s := newSim(t, grid4(t), Baseline, 1)
	id1, err := s.Post(query.MustParse("SELECT light EPOCH DURATION 4096"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Post(query.MustParse("SELECT temp EPOCH DURATION 4096"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == 0 || id2 == 0 || id1 == id2 {
		t.Fatalf("bad IDs: %d, %d", id1, id2)
	}
	// Duplicate explicit ID rejected.
	q := query.MustParse("SELECT light")
	q.ID = id1
	if _, err := s.Post(q); err == nil {
		t.Fatal("duplicate ID must error")
	}
}

func TestAvgTransmissionTimeNonzero(t *testing.T) {
	s := newSim(t, grid4(t), Baseline, 1)
	q := query.MustParse("SELECT light EPOCH DURATION 2048")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	att := s.AvgTransmissionTime()
	if att <= 0 || att >= 1 {
		t.Fatalf("avg transmission time = %f", att)
	}
}

// §3.1.2 statistics: results flowing back through the base station refine
// the cost model's selectivity estimates toward the live distribution.
func TestAdaptiveStatistics(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, TTMQO, 8)
	q := query.MustParse("SELECT light, temp EPOCH DURATION 2048")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	model := s.Optimizer().Model()
	pred := []query.Predicate{{Attr: field.AttrLight, Min: 0, Max: 100}}
	before := model.Selectivity(pred)
	s.Run(2 * time.Minute)
	after := model.Selectivity(pred)
	// Ground truth: the fraction of sensors actually reading light ≤ 100.
	matching := 0
	for i := 1; i < topo.Size(); i++ {
		if v := s.source.Reading(topology.NodeID(i), field.AttrLight, s.engine.Now()); v <= 100 {
			matching++
		}
	}
	truth := float64(matching) / float64(topo.Size()-1)
	if before == after {
		t.Fatal("histograms did not move")
	}
	if math.Abs(after-truth) >= math.Abs(before-truth) {
		t.Fatalf("estimate should approach truth: before=%.3f after=%.3f truth=%.3f",
			before, after, truth)
	}
}

// TinyDB's LIFETIME clause: the query terminates itself after its lifetime.
func TestQueryLifetimeAutoTerminates(t *testing.T) {
	s := newSim(t, grid4(t), TTMQO, 9)
	q := query.MustParse("SELECT light EPOCH DURATION 4096 LIFETIME 30s")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(20 * time.Second)
	if s.Optimizer().UserCount() != 1 {
		t.Fatal("query should still be live")
	}
	s.Run(60 * time.Second)
	if s.Optimizer().UserCount() != 0 {
		t.Fatal("query should have auto-terminated")
	}
	count := s.Metrics().MessagesOf("result")
	s.Run(60 * time.Second)
	if got := s.Metrics().MessagesOf("result"); got != count {
		t.Fatalf("traffic continued after lifetime: %d -> %d", count, got)
	}
	// A manual cancel racing the auto-cancel must not panic the engine.
	q2 := query.MustParse("SELECT temp EPOCH DURATION 4096 LIFETIME 30s")
	q2.ID = 2
	if _, err := s.Post(q2); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * time.Second)
	if err := s.Cancel(2); err != nil {
		t.Fatal(err)
	}
	s.Run(2 * time.Minute)
}

// A scheduled departure after the query's LIFETIME has ended it is not
// scheduled, so it cannot panic on the ID the auto-cancel removed; a
// cancellation of any other unknown ID still panics.
func TestScheduleDepartureAfterLifetime(t *testing.T) {
	s := newSim(t, grid4(t), TTMQO, 9)
	q := query.MustParse("SELECT light EPOCH DURATION 4096 LIFETIME 10s")
	q.ID = 1
	s.Schedule([]workload.TimedQuery{{Query: q, Depart: 30 * time.Second}})
	s.Run(time.Minute)
	if n := s.Optimizer().UserCount(); n != 0 {
		t.Fatalf("%d live queries after the lifetime", n)
	}
	s.CancelAt(s.Engine().Now()+time.Second, 99)
	defer func() {
		if recover() == nil {
			t.Fatal("cancelling an unknown ID did not panic")
		}
	}()
	s.Run(time.Minute)
}

// GROUP BY end to end: per-bucket aggregates match ground truth recomputed
// from the field, in both the baseline and the optimized scheme.
func TestGroupByEndToEnd(t *testing.T) {
	topo := grid4(t)
	for _, scheme := range []Scheme{Baseline, TTMQO} {
		s := newSim(t, topo, scheme, 11)
		q := query.MustParse("SELECT MAX(light), COUNT(light) GROUP BY nodeid BUCKET 4 EPOCH DURATION 4096")
		q.ID = 1
		if _, err := s.Post(q); err != nil {
			t.Fatal(err)
		}
		s.Run(30 * time.Second)
		epochs := s.Results().AggsFor(1)
		if len(epochs) < 5 {
			t.Fatalf("%v: %d epochs", scheme, len(epochs))
		}
		for _, ep := range epochs {
			// Ground truth per bucket of 4 node IDs.
			truthMax := map[int64]float64{}
			truthCnt := map[int64]int{}
			for i := 1; i < topo.Size(); i++ {
				g := int64(i / 4)
				v := s.source.Reading(topology.NodeID(i), field.AttrLight, ep.Time)
				if cur, ok := truthMax[g]; !ok || v > cur {
					truthMax[g] = v
				}
				truthCnt[g]++
			}
			gotMax := map[int64]float64{}
			gotCnt := map[int64]float64{}
			for _, r := range ep.Results {
				if r.Empty {
					t.Fatalf("%v: empty grouped result %+v", scheme, r)
				}
				switch r.Agg.Op {
				case query.Max:
					gotMax[r.Group] = r.Value
				case query.Count:
					gotCnt[r.Group] = r.Value
				}
			}
			if len(gotMax) != len(truthMax) {
				t.Fatalf("%v: %d groups, want %d", scheme, len(gotMax), len(truthMax))
			}
			for g, want := range truthMax {
				if gotMax[g] != want {
					t.Fatalf("%v: MAX group %d = %f, want %f", scheme, g, gotMax[g], want)
				}
				if int(gotCnt[g]) != truthCnt[g] {
					t.Fatalf("%v: COUNT group %d = %f, want %d", scheme, g, gotCnt[g], truthCnt[g])
				}
			}
		}
	}
}

// Two grouped aggregations with identical predicates and group spec merge
// at the base station.
func TestGroupByTier1Merge(t *testing.T) {
	s := newSim(t, grid4(t), TTMQO, 12)
	q1 := query.MustParse("SELECT MAX(light) WHERE temp > 10 GROUP BY nodeid BUCKET 4 EPOCH DURATION 4096")
	q1.ID = 1
	q2 := query.MustParse("SELECT MIN(light) WHERE temp > 10 GROUP BY nodeid BUCKET 4 EPOCH DURATION 8192")
	q2.ID = 2
	if _, err := s.Post(q1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Post(q2); err != nil {
		t.Fatal(err)
	}
	if s.Optimizer().SyntheticCount() != 1 {
		t.Fatalf("synthetic count = %d, want 1", s.Optimizer().SyntheticCount())
	}
	s.Run(30 * time.Second)
	if s.Results().AggEpochs(1) == 0 || s.Results().AggEpochs(2) == 0 {
		t.Fatal("both grouped queries must receive results")
	}
}

// The trace facility records the full run: admissions, installs, firings,
// transmissions and flushes.
func TestTraceRecordsRun(t *testing.T) {
	topo := grid4(t)
	buf := tracing.New(tracing.TierNetwork, tracing.Unbounded)
	s, err := New(Config{
		Topo:                topo,
		Scheme:              TTMQO,
		Seed:                13,
		MaintenanceInterval: -1,
		Trace:               buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(15 * time.Second)
	if err := s.Cancel(1); err != nil {
		t.Fatal(err)
	}
	s.Run(5 * time.Second)

	counts := buf.CountByKind()
	for _, k := range []string{tracing.KindAdmit, tracing.KindCancel, tracing.KindInstall,
		tracing.KindAbort, tracing.KindFire, tracing.KindTx, tracing.KindFlush} {
		if counts[k] == 0 {
			t.Errorf("no %s events recorded: %v", k, counts)
		}
	}
	// Installs: one per sensor node.
	if counts[tracing.KindInstall] != topo.Size()-1 {
		t.Errorf("install events = %d, want %d", counts[tracing.KindInstall], topo.Size()-1)
	}
}

// Property sweep: EVERY tier-2 policy combination preserves user-visible
// results — optimizations may only remove radio work, never change answers.
func TestPolicyCombinationsPreserveResults(t *testing.T) {
	topo := grid4(t)
	queries := []string{
		"SELECT nodeid, light WHERE light >= 100 AND light <= 800 EPOCH DURATION 4096",
		"SELECT MAX(temp) WHERE temp >= 10 AND temp <= 90 EPOCH DURATION 8192",
	}
	run := func(p node.Policy) map[string]int {
		s, err := New(Config{
			Topo:                topo,
			Scheme:              InNetworkOnly,
			Seed:                20,
			MaintenanceInterval: -1,
			PolicyOverride:      &p,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, qs := range queries {
			q := query.MustParse(qs)
			q.ID = query.ID(i + 1)
			s.PostAt(0, q)
		}
		s.Run(40 * time.Second)
		// Fingerprint the delivered results.
		fp := map[string]int{}
		for i := range queries {
			qid := query.ID(i + 1)
			for _, ep := range s.Results().RowsFor(qid) {
				for _, r := range ep.Rows {
					light, _ := r.Values.Get(field.AttrLight)
					fp[fmt.Sprintf("q%d@%v:n%d:%.6f", qid, ep.Time, r.Node, light)]++
				}
			}
			for _, ep := range s.Results().AggsFor(qid) {
				for _, res := range ep.Results {
					fp[fmt.Sprintf("q%d@%v:%s=%.6f/%v", qid, ep.Time, res.Agg, res.Value, res.Empty)]++
				}
			}
		}
		return fp
	}

	// Reference: all mechanisms on (timestamps align with every other
	// aligned combination; AlignedEpochs stays fixed across the sweep so
	// phases match).
	ref := run(node.Policy{AlignedEpochs: true, QueryAwareDAG: true,
		SharedMessages: true, Multicast: true, Sleep: true, SRT: true})
	if len(ref) == 0 {
		t.Fatal("reference produced no results")
	}
	for mask := 0; mask < 32; mask++ {
		p := node.Policy{
			AlignedEpochs:  true,
			QueryAwareDAG:  mask&1 != 0,
			SharedMessages: mask&2 != 0,
			Multicast:      mask&4 != 0,
			Sleep:          mask&8 != 0,
			SRT:            mask&16 != 0,
		}
		got := run(p)
		if len(got) != len(ref) {
			t.Fatalf("policy %+v: %d result entries vs reference %d", p, len(got), len(ref))
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("policy %+v: result mismatch at %s", p, k)
			}
		}
	}
}

// A recorded trace replayed through the full stack produces exactly the
// same results as the live source it was recorded from (at the sampled
// granularity).
func TestTraceSourceReplayMatchesLive(t *testing.T) {
	topo := grid4(t)
	live := field.New(topo, field.Config{Seed: 23})
	trace := field.Record(live, topo, field.AllAttrs(), 2048*time.Millisecond, 2*time.Minute)

	run := func(src field.Source) []core.UserRows {
		s, err := New(Config{
			Topo: topo, Scheme: TTMQO, Seed: 23, Source: src,
			MaintenanceInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		q := query.MustParse("SELECT nodeid, light WHERE light >= 100 EPOCH DURATION 4096")
		q.ID = 1
		s.PostAt(0, q)
		s.Run(90 * time.Second)
		return s.Results().RowsFor(1)
	}
	a := run(live)
	b := run(trace)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("epochs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time || len(a[i].Rows) != len(b[i].Rows) {
			t.Fatalf("epoch %d differs", i)
		}
		for j := range a[i].Rows {
			if a[i].Rows[j].Values.String() != b[i].Rows[j].Values.String() {
				t.Fatalf("row value differs at epoch %d row %d", i, j)
			}
		}
	}
}

func TestPostBatchFloodsOnce(t *testing.T) {
	topo := grid4(t)
	qs := func() []query.Query {
		var out []query.Query
		for _, s := range []string{
			"SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192",
			"SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192",
			"SELECT light WHERE 120 < light AND light < 480 EPOCH DURATION 8192",
		} {
			out = append(out, query.MustParse(s))
		}
		return out
	}

	seq := newSim(t, topo, TTMQO, 24)
	for _, q := range qs() {
		if _, err := seq.Post(q); err != nil {
			t.Fatal(err)
		}
	}
	seq.Run(2 * time.Second)

	bat := newSim(t, topo, TTMQO, 24)
	ids, err := bat.PostBatch(qs())
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}
	bat.Run(2 * time.Second)

	seqControl := seq.Metrics().MessagesOf("query") + seq.Metrics().MessagesOf("abort")
	batControl := bat.Metrics().MessagesOf("query") + bat.Metrics().MessagesOf("abort")
	if batControl >= seqControl {
		t.Fatalf("batch control traffic %d should be below sequential %d", batControl, seqControl)
	}
	// Exactly one flood for the single merged synthetic query.
	if got := bat.Metrics().MessagesOf("query"); got != topo.Size() {
		t.Fatalf("batch query messages = %d, want one flood (%d)", got, topo.Size())
	}
	// Results still flow to all three.
	bat.Run(30 * time.Second)
	for _, id := range ids {
		if bat.Results().RowEpochs(id) == 0 {
			t.Fatalf("query %d got no results", id)
		}
	}
}

// The whole stack runs on irregular (non-grid) deployments too, and the
// scheme ordering survives.
func TestIrregularDeployment(t *testing.T) {
	topo, err := topology.NewRandom(25, 130, 50, 31)
	if err != nil {
		t.Fatal(err)
	}
	tx := map[Scheme]float64{}
	for _, scheme := range []Scheme{Baseline, TTMQO} {
		s, err := New(Config{Topo: topo, Scheme: scheme, Seed: 31, DiscardResults: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloadA() {
			s.PostAt(0, w)
		}
		s.Run(3 * time.Minute)
		tx[scheme] = s.AvgTransmissionTime()
	}
	if tx[TTMQO] >= 0.5*tx[Baseline] {
		t.Fatalf("TTMQO on irregular topology: %.5f vs baseline %.5f", tx[TTMQO], tx[Baseline])
	}
}

func workloadA() []query.Query {
	var out []query.Query
	for i, s := range []string{
		"SELECT light WHERE light >= 100 AND light <= 600 EPOCH DURATION 4096",
		"SELECT light WHERE light >= 150 AND light <= 650 EPOCH DURATION 8192",
		"SELECT light, temp WHERE light >= 100 AND light <= 700 EPOCH DURATION 4096",
		"SELECT light WHERE light >= 120 AND light <= 640 EPOCH DURATION 8192",
	} {
		q := query.MustParse(s)
		q.ID = query.ID(i + 1)
		out = append(out, q)
	}
	return out
}
