package share

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/topology"
)

// The coordinator must be drivable by the TCP server exactly like a
// gateway or a federation router.
var _ gateway.Backend = (*Coordinator)(nil)

const testQuantum = 2048 * time.Millisecond

// testSide 4 gives 15 sensors: with cell 4 the id space decomposes into
// three aligned cells [1,4] [5,8] [9,12] and a residual [13,15].
const (
	testSide    = 4
	testSensors = testSide*testSide - 1
	testCell    = 4
)

func newTestGateway(t *testing.T, cfg gateway.Config) *gateway.Gateway {
	t.Helper()
	if cfg.Sim.Topo == nil {
		topo, err := topology.PaperGrid(testSide)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sim.Topo = topo
	}
	if cfg.Sim.Scheme == 0 {
		cfg.Sim.Scheme = network.TTMQO
	}
	if cfg.Sim.Seed == 0 {
		cfg.Sim.Seed = 1
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	return gw
}

func newTestCoord(t *testing.T, gcfg gateway.Config, ccfg Config) (*Coordinator, *gateway.Gateway) {
	t.Helper()
	gw := newTestGateway(t, gcfg)
	ccfg.Upstream = OverGateway(gw)
	if ccfg.Sensors == 0 {
		ccfg.Sensors = testSensors
	}
	if ccfg.Cell == 0 {
		ccfg.Cell = testCell
	}
	c, err := New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, gw
}

func stageShare(t *testing.T, s *Session, text string) *Ticket {
	t.Helper()
	tk, err := s.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func advance(t *testing.T, c *Coordinator, d time.Duration) {
	t.Helper()
	if _, err := c.Advance(d); err != nil {
		t.Fatal(err)
	}
}

// takeSub hands over what sub holds, as its reader's Take does, and
// reports whether the stream is still live.
func takeSub(sub *Sub) (batch []gateway.Update, live bool) {
	sub.Session().Read(func() { batch, live = sub.Take(nil) })
	return batch, live
}

// drainSub appends what sub holds to into.
func drainSub(sub *Sub, into *[]gateway.Update) {
	batch, _ := takeSub(sub)
	*into = append(*into, batch...)
}

// checkStream asserts contiguous sequence numbers and strictly
// increasing virtual time.
func checkStream(t *testing.T, updates []gateway.Update) {
	t.Helper()
	for i, u := range updates {
		if u.Seq != uint64(i+1) {
			t.Fatalf("update %d has seq %d (dupe or gap)", i, u.Seq)
		}
		if i > 0 && u.At <= updates[i-1].At {
			t.Fatalf("update %d at %v, not after %v", i, u.At, updates[i-1].At)
		}
	}
}

// TestPlanShareDecomposition pins the fragment geometry: aligned interior
// cells, exact edge residuals, full-range predicate elision and the
// AVG→SUM+COUNT basis rewrite.
func TestPlanShareDecomposition(t *testing.T) {
	q := query.MustParse("SELECT AVG(temp) WHERE nodeid >= 3 AND nodeid <= 13 EPOCH DURATION 8192ms")
	p, err := planShare(q, testSensors, testCell)
	if err != nil {
		t.Fatal(err)
	}
	wantRanges := [][2]int{{3, 4}, {5, 8}, {9, 12}, {13, 13}}
	if len(p.frags) != len(wantRanges) {
		t.Fatalf("got %d fragments, want %d: %+v", len(p.frags), len(wantRanges), p.frags)
	}
	for i, fq := range p.frags {
		pred, ok := fq.q.PredFor(field.AttrNodeID)
		if !ok {
			t.Fatalf("fragment %d has no region predicate", i)
		}
		if int(pred.Min) != wantRanges[i][0] || int(pred.Max) != wantRanges[i][1] {
			t.Errorf("fragment %d range [%v,%v], want %v", i, pred.Min, pred.Max, wantRanges[i])
		}
		if len(fq.q.Aggs) != 2 || fq.q.Aggs[0].Op == query.Avg || fq.q.Aggs[1].Op == query.Avg {
			t.Errorf("fragment %d aggs %v, want SUM+COUNT basis", i, fq.q.Aggs)
		}
	}

	// Cell boundaries: a cut falls only where it bounds a whole cell inside
	// the region, the region is clipped to the deployment, and a region that
	// misses it is an error rather than a plan with no fragments.
	for _, c := range []struct {
		lo, hi float64
		want   [][2]int // nil: rejected
	}{
		{5, 8, [][2]int{{5, 8}}},                     // exactly one cell
		{2, 3, [][2]int{{2, 3}}},                     // inside one cell
		{3, 6, [][2]int{{3, 6}}},                     // straddles a boundary, holds no whole cell
		{3, 8, [][2]int{{3, 4}, {5, 8}}},             // left residual + whole cell
		{5, 10, [][2]int{{5, 8}, {9, 10}}},           // whole cell + right residual
		{2.5, 9.5, [][2]int{{3, 4}, {5, 8}, {9, 9}}}, // fractional bounds round inward
		{float64(testSensors) - 1, 1000, [][2]int{{testSensors - 1, testSensors}}},
		{float64(testSensors) + 1, 1000, nil},
		{0.2, 0.8, nil},
	} {
		text := fmt.Sprintf("SELECT SUM(light) WHERE nodeid >= %g AND nodeid <= %g EPOCH DURATION 8192ms", c.lo, c.hi)
		p, err := planShare(query.MustParse(text), testSensors, testCell)
		if c.want == nil {
			if err == nil {
				t.Errorf("[%g,%g]: planned %d fragments for a region that misses the deployment", c.lo, c.hi, len(p.frags))
			}
			continue
		}
		if err != nil {
			t.Errorf("[%g,%g]: %v", c.lo, c.hi, err)
			continue
		}
		var got [][2]int
		for _, fq := range p.frags {
			pred, _ := fq.q.PredFor(field.AttrNodeID)
			got = append(got, [2]int{int(pred.Min), int(pred.Max)})
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("[%g,%g]: fragments %v, want %v", c.lo, c.hi, got, c.want)
		}
	}

	// A query naming the full range explicitly and one with no region
	// predicate must decompose to identical fragment keys.
	qa := query.MustParse(fmt.Sprintf("SELECT MAX(light) WHERE nodeid >= 1 AND nodeid <= %d EPOCH DURATION 8192ms", testSensors))
	qb := query.MustParse("SELECT MAX(light) EPOCH DURATION 8192ms")
	pa, err := planShare(qa, testSensors, testCell)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := planShare(qb, testSensors, testCell)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.frags) != len(pb.frags) {
		t.Fatalf("full-range forms decompose differently: %d vs %d", len(pa.frags), len(pb.frags))
	}
	for i := range pa.frags {
		if pa.frags[i].key != pb.frags[i].key {
			t.Errorf("fragment %d keys differ:\n  %s\n  %s", i, pa.frags[i].key, pb.frags[i].key)
		}
	}

	// GROUP BY passes through as one exact fragment.
	qg := query.MustParse("SELECT AVG(light) GROUP BY temp BUCKET 10 EPOCH DURATION 8192ms")
	pg, err := planShare(qg, testSensors, testCell)
	if err != nil {
		t.Fatal(err)
	}
	if !pg.passthrough || len(pg.frags) != 1 {
		t.Fatalf("GROUP BY plan not passthrough: %+v", pg)
	}
}

// TestCoordinatorSharesFragments: two overlapping-but-not-containable
// region queries share their common interior cells, so the second query
// admits strictly fewer upstream queries than its fragment count.
func TestCoordinatorSharesFragments(t *testing.T) {
	c, gw := newTestCoord(t, gateway.Config{}, Config{})
	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// [1,8] = cells {1-4, 5-8}; [5,12] = cells {5-8, 9-12}: the 5-8 cell
	// is the common subexpression.
	tkA := stageShare(t, sess, "SELECT SUM(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	subA, err := tkA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	admittedAfterA := mustGwStats(t, gw).Admitted

	tkB := stageShare(t, sess, "SELECT SUM(light) WHERE nodeid >= 5 AND nodeid <= 12 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	subB, err := tkB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st := c.ShareStats()
	gst := mustGwStats(t, gw)
	if admittedAfterA != 2 {
		t.Fatalf("query A admitted %d upstream fragments, want 2", admittedAfterA)
	}
	if gst.Admitted != 3 {
		t.Fatalf("A+B admitted %d upstream fragments, want 3 (cell 5-8 shared)", gst.Admitted)
	}
	if st.FragmentsReused != 1 || st.FragmentsCreated != 3 {
		t.Fatalf("reuse accounting: created=%d reused=%d, want 3/1", st.FragmentsCreated, st.FragmentsReused)
	}
	if r := st.FragmentReuseRatio(); math.Abs(r-0.25) > 1e-9 {
		t.Errorf("reuse ratio %v, want 0.25", r)
	}

	// Both subscribers must stream correct sums: drive some epochs and
	// compare against a direct gateway subscription of query A's region.
	direct, err := gw.Register("direct")
	if err != nil {
		t.Fatal(err)
	}
	dtk, err := direct.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse("SELECT SUM(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192ms")})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, c, testQuantum)
	dsub, err := dtk.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var ua, ub, ud []gateway.Update
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(subA, &ua)
		drainSub(subB, &ub)
		drainSub(dsub, &ud)
	}
	checkStream(t, ua)
	checkStream(t, ub)
	if len(ua) == 0 || len(ub) == 0 || len(ud) == 0 {
		t.Fatalf("missing deliveries: A=%d B=%d direct=%d", len(ua), len(ub), len(ud))
	}

	// Compare composed SUMs against the direct stream at matching epochs.
	dByAt := make(map[int64]float64)
	for _, u := range ud {
		if len(u.Aggs) == 1 && !u.Aggs[0].Empty {
			dByAt[int64(u.At)] = u.Aggs[0].Value
		}
	}
	matched := 0
	for _, u := range ua {
		if len(u.Aggs) != 1 {
			t.Fatalf("composed update carries %d aggs, want 1", len(u.Aggs))
		}
		want, ok := dByAt[int64(u.At)]
		if !ok || u.Aggs[0].Empty {
			continue
		}
		if math.Abs(u.Aggs[0].Value-want) > 1e-9 {
			t.Fatalf("epoch %v: composed SUM %v != direct %v", u.At, u.Aggs[0].Value, want)
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("no overlapping epochs between composed and direct streams")
	}
}

func mustGwStats(t *testing.T, gw *gateway.Gateway) gateway.Stats {
	t.Helper()
	st := gw.Stats()
	return st
}

// TestCoordinatorAvgComposition: AVG over a decomposed region recombines
// from the SUM+COUNT basis to the exact value of a direct subscription.
func TestCoordinatorAvgComposition(t *testing.T) {
	c, gw := newTestCoord(t, gateway.Config{}, Config{})
	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageShare(t, sess, "SELECT AVG(temp) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}

	direct, err := gw.Register("direct")
	if err != nil {
		t.Fatal(err)
	}
	dtk, err := direct.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse("SELECT AVG(temp) EPOCH DURATION 8192ms")})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, c, testQuantum)
	dsub, err := dtk.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var us, ud []gateway.Update
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(sub, &us)
		drainSub(dsub, &ud)
	}
	checkStream(t, us)
	dByAt := make(map[int64]float64)
	for _, u := range ud {
		if len(u.Aggs) == 1 && !u.Aggs[0].Empty {
			dByAt[int64(u.At)] = u.Aggs[0].Value
		}
	}
	matched := 0
	for _, u := range us {
		if len(u.Aggs) != 1 || u.Aggs[0].Agg.Op != query.Avg {
			t.Fatalf("composed update aggs = %v, want one AVG", u.Aggs)
		}
		want, ok := dByAt[int64(u.At)]
		if !ok || u.Aggs[0].Empty {
			continue
		}
		if math.Abs(u.Aggs[0].Value-want) > 1e-9 {
			t.Fatalf("epoch %v: composed AVG %v != direct %v", u.At, u.Aggs[0].Value, want)
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("no overlapping epochs between composed and direct streams")
	}
}

// TestCoordinatorAcquisitionComposition: row queries concatenate fragment
// rows back into node order.
func TestCoordinatorAcquisitionComposition(t *testing.T) {
	c, _ := newTestCoord(t, gateway.Config{}, Config{})
	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageShare(t, sess, "SELECT nodeid, light WHERE nodeid >= 2 AND nodeid <= 10 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var us []gateway.Update
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(sub, &us)
	}
	checkStream(t, us)
	if len(us) == 0 {
		t.Fatal("no composed acquisition epochs")
	}
	for _, u := range us {
		for i, r := range u.Rows {
			if r.Node < 2 || r.Node > 10 {
				t.Fatalf("row outside region: node %d", r.Node)
			}
			if i > 0 && u.Rows[i-1].Node > r.Node {
				t.Fatalf("rows not in node order at epoch %v", u.At)
			}
		}
	}
}

// TestCoordinatorLateSubscriberReplay: a subscriber joining a live query
// replays the cached window immediately instead of waiting out an epoch.
func TestCoordinatorLateSubscriberReplay(t *testing.T) {
	c, _ := newTestCoord(t, gateway.Config{}, Config{Window: 3})
	early, err := c.Register("early")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageShare(t, early, "SELECT MIN(light) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	esub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var eu []gateway.Update
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(esub, &eu)
	}
	if len(eu) < 3 {
		t.Fatalf("early subscriber got only %d epochs", len(eu))
	}

	late, err := c.Register("late")
	if err != nil {
		t.Fatal(err)
	}
	ltk := stageShare(t, late, "SELECT MIN(light) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	lsub, err := ltk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var lu []gateway.Update
	drainSub(lsub, &lu)
	if len(lu) != 3 {
		t.Fatalf("late subscriber replayed %d epochs immediately, want 3", len(lu))
	}
	checkStream(t, lu)

	// Replayed values must equal what the early subscriber saw live.
	eByAt := make(map[int64]float64)
	for _, u := range eu {
		eByAt[int64(u.At)] = u.Aggs[0].Value
	}
	for _, u := range lu {
		want, ok := eByAt[int64(u.At)]
		if !ok {
			t.Fatalf("replayed epoch %v never seen live", u.At)
		}
		if math.Abs(u.Aggs[0].Value-want) > 1e-9 {
			t.Fatalf("replayed epoch %v: %v != live %v", u.At, u.Aggs[0].Value, want)
		}
	}

	// The replay must splice seamlessly into the live stream: no dupes,
	// no regressions across the boundary.
	for i := 0; i < 4; i++ {
		advance(t, c, testQuantum)
		drainSub(lsub, &lu)
		drainSub(esub, &eu)
	}
	checkStream(t, lu)
	checkStream(t, eu)
	if len(lu) < 4 {
		t.Fatalf("late subscriber stalled after replay: %d epochs", len(lu))
	}

	st := c.ShareStats()
	if st.CacheHits != 1 || st.ReplayedEpochs != 3 {
		t.Fatalf("cache accounting: hits=%d replayed=%d, want 1/3", st.CacheHits, st.ReplayedEpochs)
	}
	if st.CacheHitRatio() <= 0 {
		t.Errorf("cache hit ratio %v, want > 0", st.CacheHitRatio())
	}
}

// TestCoordinatorSynthesizedReplay: a NEW query whose fragments all
// already stream for other queries gets its window synthesized from the
// fragment caches — a cache hit without any prior subscriber of that
// exact query.
func TestCoordinatorSynthesizedReplay(t *testing.T) {
	c, _ := newTestCoord(t, gateway.Config{}, Config{Window: 3})
	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Two queries that together materialize cells 1-4, 5-8, 9-12 and
	// residual 13-15.
	tkA := stageShare(t, sess, "SELECT SUM(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192ms")
	tkB := stageShare(t, sess, "SELECT SUM(light) WHERE nodeid >= 9 AND nodeid <= 15 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	subA, err := tkA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	subB, err := tkB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var ua, ub []gateway.Update
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(subA, &ua)
		drainSub(subB, &ub)
	}
	if len(ua) < 3 || len(ub) < 3 {
		t.Fatalf("warm-up too short: %d/%d epochs", len(ua), len(ub))
	}

	// The spanning query [1,15] composes entirely from live fragments.
	tkC := stageShare(t, sess, "SELECT SUM(light) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	subC, err := tkC.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var uc []gateway.Update
	drainSub(subC, &uc)
	if len(uc) == 0 {
		t.Fatal("covered query got no synthesized replay")
	}
	checkStream(t, uc)

	// Synthesized SUM over [1,15] must equal SUM[1,8] + SUM[9,15] at the
	// same epochs.
	aByAt := make(map[int64]float64)
	for _, u := range ua {
		aByAt[int64(u.At)] = u.Aggs[0].Value
	}
	bByAt := make(map[int64]float64)
	for _, u := range ub {
		bByAt[int64(u.At)] = u.Aggs[0].Value
	}
	for _, u := range uc[:min(len(uc), 3)] {
		a, aok := aByAt[int64(u.At)]
		b, bok := bByAt[int64(u.At)]
		if !aok || !bok {
			t.Fatalf("synthesized epoch %v missing from live streams", u.At)
		}
		if want := a + b; math.Abs(u.Aggs[0].Value-want) > 1e-9 {
			t.Fatalf("synthesized SUM at %v = %v, want %v", u.At, u.Aggs[0].Value, want)
		}
	}

	st := c.ShareStats()
	gw := mustGwStats2(t, c)
	if st.FragmentsCreated != 4 {
		t.Errorf("created %d fragments, want 4 (C admitted nothing new)", st.FragmentsCreated)
	}
	_ = gw
	if st.CacheHits == 0 || st.ReplayedEpochs == 0 {
		t.Errorf("synthesis not counted as cache hit: %+v", st)
	}
}

func mustGwStats2(t *testing.T, c *Coordinator) gateway.Stats {
	t.Helper()
	st, _, err := c.ServeStats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestCoordinatorEvictionReleasesFragments is the sharing-layer side of
// the eviction-refcount regression: when a stalled subscriber is evicted
// and it was the canonical query's last reference, every fragment the
// query held must decref — and fragments at refcount zero must cancel
// their upstream queries.
func TestCoordinatorEvictionReleasesFragments(t *testing.T) {
	c, gw := newTestCoord(t, gateway.Config{}, Config{Buffer: 2})
	slow, err := c.Register("slow")
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.Register("fast")
	if err != nil {
		t.Fatal(err)
	}
	// The slow session's query holds cells 1-4 and 5-8; the fast one
	// shares cell 1-4 only.
	tkS := stageShare(t, slow, "SELECT SUM(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192ms")
	tkF := stageShare(t, fast, "SELECT SUM(light) WHERE nodeid >= 1 AND nodeid <= 4 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	if _, err := tkS.Wait(); err != nil {
		t.Fatal(err)
	}
	fsub, err := tkF.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.ShareStats(); st.FragmentsActive != 2 {
		t.Fatalf("fragments=%d, want 2", st.FragmentsActive)
	}

	// Never drain the slow subscriber; it overflows and is evicted.
	var fu []gateway.Update
	for i := 0; i < 16; i++ {
		advance(t, c, testQuantum)
		drainSub(fsub, &fu)
	}
	st := c.ShareStats()
	if st.Evicted != 1 {
		t.Fatalf("evicted=%d, want 1", st.Evicted)
	}
	if st.Trees != 1 || st.FragmentsActive != 1 {
		t.Fatalf("eviction leaked shared state: trees=%d fragments=%d, want 1/1", st.Trees, st.FragmentsActive)
	}
	if st.FragmentsCancelled != 1 {
		t.Fatalf("fragments_cancelled=%d, want 1 (cell 5-8 released)", st.FragmentsCancelled)
	}

	// The upstream must see the refcount-zero cancel; the shared cell
	// 1-4 must survive for the fast subscriber.
	advance(t, c, testQuantum)
	gst := mustGwStats(t, gw)
	if gst.Cancelled != 1 || gst.SharedQueries != 1 {
		t.Fatalf("upstream cancel not propagated: %+v", gst)
	}
	checkStream(t, fu)
	if len(fu) == 0 {
		t.Fatal("fast subscriber starved by the eviction")
	}
}

// TestCoordinatorOverRouter: the coordinator composes with the federation
// tier — fragments stream through a sharded router and still recombine.
func TestCoordinatorOverRouter(t *testing.T) {
	rt, err := federation.New(federation.Config{Shards: 2, Side: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	sensors := 2 * (3*3 - 1) // 16 global sensors
	c, err := New(Config{Upstream: OverRouter(rt), Sensors: sensors, Cell: testCell})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// [5,12] straddles the shard boundary at 8|9: the coordinator splits
	// it into cells 5-8 and 9-12, and the router spans each across its
	// shards as needed.
	tk := stageShare(t, sess, "SELECT SUM(light) WHERE nodeid >= 5 AND nodeid <= 12 EPOCH DURATION 8192ms")
	advance(t, c, 8192*time.Millisecond)
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var us []gateway.Update
	for i := 0; i < 8; i++ {
		advance(t, c, 8192*time.Millisecond)
		drainSub(sub, &us)
	}
	checkStream(t, us)
	if len(us) < 2 {
		t.Fatalf("only %d composed epochs through the router", len(us))
	}
	if st := c.ShareStats(); st.FragmentsActive != 2 {
		t.Errorf("fragments=%d, want 2", st.FragmentsActive)
	}
}

// TestCoordinatorReattachAfterCrash: the upstream gateway crashes and is
// rebuilt from its WAL; the coordinator re-attaches its sessions, resumes
// every fragment stream, and downstream subscribers see a pause — never a
// duplicate, gap or epoch regression. The windowed cache keeps serving
// late subscribers across the outage.
func TestCoordinatorReattachAfterCrash(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "share.wal")
	topo, err := topology.PaperGrid(testSide)
	if err != nil {
		t.Fatal(err)
	}
	mkCfg := func() gateway.Config {
		return gateway.Config{
			Sim:     network.Config{Topo: topo, Scheme: network.TTMQO, Seed: 1},
			WALPath: wal,
		}
	}
	gw, err := gateway.New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Upstream: OverGateway(gw), Sensors: testSensors, Cell: testCell, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// A server's pacer reads the coordinator's rung and liveness from its
	// own goroutine, across the Reattach below (run under -race).
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				c.BrownoutLevel()
				c.Alive()
				runtime.Gosched()
			}
		}
	}()
	defer func() { close(stop); <-polled }()

	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageShare(t, sess, "SELECT SUM(light) WHERE nodeid >= 3 AND nodeid <= 13 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var us []gateway.Update
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(sub, &us)
	}
	if len(us) < 2 {
		t.Fatalf("warm-up delivered only %d epochs", len(us))
	}

	// Crash the gateway abruptly and rebuild it from the WAL.
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}
	gw2, err := gateway.Recover(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw2.Close() })
	if err := c.Reattach(OverGateway(gw2)); err != nil {
		t.Fatal(err)
	}

	// A late subscriber during the outage window still hits the cache.
	late, err := c.Register("late")
	if err != nil {
		t.Fatal(err)
	}
	ltk := stageShare(t, late, "SELECT SUM(light) WHERE nodeid >= 3 AND nodeid <= 13 EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	lsub, err := ltk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var lu []gateway.Update
	drainSub(lsub, &lu)
	if len(lu) == 0 {
		t.Fatal("cache did not survive the crash")
	}

	before := len(us)
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
		drainSub(sub, &us)
		drainSub(lsub, &lu)
	}
	checkStream(t, us)
	checkStream(t, lu)
	if len(us) <= before {
		t.Fatalf("no progress after reattach: %d then, %d now", before, len(us))
	}
	st := c.ShareStats()
	if st.Reattaches != 1 || st.UpstreamResumes == 0 {
		t.Fatalf("failover accounting: reattaches=%d resumes=%d", st.Reattaches, st.UpstreamResumes)
	}
	_ = fmt.Sprintf
}

// TestCoordinatorDetachResume: the downstream detach/resume path parks
// and replays tails exactly like the gateway's.
func TestCoordinatorDetachResume(t *testing.T) {
	c, _ := newTestCoord(t, gateway.Config{}, Config{})
	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageShare(t, sess, "SELECT COUNT(light) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var us []gateway.Update
	for i := 0; i < 8; i++ {
		advance(t, c, testQuantum)
		drainSub(sub, &us)
	}
	if len(us) == 0 {
		t.Fatal("no epochs before detach")
	}
	last := us[len(us)-1].Seq

	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		advance(t, c, testQuantum)
	}
	s2, infos, err := c.Attach("alice", sess.Token())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != sub.ID() {
		t.Fatalf("resume infos = %+v", infos)
	}
	rsub, err := s2.Resume(sub.ID(), last)
	if err != nil {
		t.Fatal(err)
	}
	var ru []gateway.Update
	drainSub(rsub, &ru)
	if len(ru) == 0 {
		t.Fatal("no parked tail replayed")
	}
	for i, u := range ru {
		if u.Seq != last+uint64(i+1) {
			t.Fatalf("resumed seq %d, want %d", u.Seq, last+uint64(i+1))
		}
	}
}

// pressuredUpstream is a real upstream whose brownout rung the test sets.
type pressuredUpstream struct {
	Upstream
	level *atomic.Int32
}

func (u pressuredUpstream) BrownoutLevel() resilience.Level {
	return resilience.Level(u.level.Load())
}

// TestCoordinatorShedsReplayUnderUpstreamBrownout: the coordinator's rung
// is its upstream's, so once the upstream's ladder reaches no-replay a late
// subscriber goes live without the cached window, and the shed is counted.
func TestCoordinatorShedsReplayUnderUpstreamBrownout(t *testing.T) {
	var level atomic.Int32
	c, err := New(Config{
		Upstream: pressuredUpstream{OverGateway(newTestGateway(t, gateway.Config{})), &level},
		Sensors:  testSensors, Cell: testCell, Window: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	early, err := c.Register("early")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageShare(t, early, "SELECT MIN(light) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		advance(t, c, testQuantum)
	}

	level.Store(int32(resilience.LevelNoReplay))
	if got := c.BrownoutLevel(); got != resilience.LevelNoReplay {
		t.Fatalf("coordinator rung %v, upstream reports %v", got, resilience.LevelNoReplay)
	}
	late, err := c.Register("late")
	if err != nil {
		t.Fatal(err)
	}
	ltk := stageShare(t, late, "SELECT MIN(light) EPOCH DURATION 8192ms")
	advance(t, c, testQuantum)
	if _, err := ltk.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := c.ShareStats(); st.ReplaySheds != 1 || st.CacheHits != 0 || st.ReplayedEpochs != 0 {
		t.Fatalf("replay sheds=%d cache hits=%d replayed=%d, want 1/0/0", st.ReplaySheds, st.CacheHits, st.ReplayedEpochs)
	}
}

// TestSessionTokensPinned: a coordinator's resume token is the FNV-1a hash
// of "share:<session>:<n>", n the registration's ordinal. The values were
// recorded when the coordinator minted its tokens itself; the kernel mints
// the same ones.
func TestSessionTokensPinned(t *testing.T) {
	c, _ := newTestCoord(t, gateway.Config{}, Config{})
	var got []string
	for _, name := range []string{"alice", "bob"} {
		s, err := c.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, s.Token())
	}
	want := []string{"9600d8ef85194ad7", "4fbb41fa29a52c69"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i+1, got[i], want[i])
		}
	}
}
