package node

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// forkTopo: BS at origin with two level-1 parents P1 (node 1) and P2
// (node 2), and a level-2 source S (node 3) in range of both parents but
// not of the BS. P1 has the better link to S.
func forkTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New([]topology.Point{
		{X: 0, Y: 0},    // BS
		{X: 40, Y: 12},  // P1
		{X: 40, Y: -25}, // P2
		{X: 72, Y: 0},   // S
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got := topo.Level(3); got != 2 {
		t.Fatalf("S level = %d, want 2", got)
	}
	if len(topo.UpperNeighbors(3)) != 2 {
		t.Fatalf("S upper neighbors = %v, want both parents", topo.UpperNeighbors(3))
	}
	return topo
}

// splitSource gives P1 data for query 1 only and P2 data for query 2 only,
// while S matches both — forcing the multicast split at S.
type splitSource struct{}

func (splitSource) Reading(id topology.NodeID, a field.Attr, _ sim.Time) float64 {
	switch a {
	case field.AttrNodeID:
		return float64(id)
	case field.AttrLight: // query 1 wants light >= 500
		if id == 1 || id == 3 {
			return 900
		}
		return 100
	case field.AttrTemp: // query 2 wants temp >= 50
		if id == 2 || id == 3 {
			return 90
		}
		return 10
	default:
		return 0
	}
}

func postSplitQueries(r *rig) {
	q1 := query.MustParse("SELECT light WHERE light >= 500 EPOCH DURATION 4096")
	q1.ID = 1
	q2 := query.MustParse("SELECT temp WHERE temp >= 50 EPOCH DURATION 4096")
	q2.ID = 2
	r.flood(q1, 4096*time.Millisecond)
	r.flood(q2, 4096*time.Millisecond)
}

func TestMulticastSplitsAcrossParents(t *testing.T) {
	topo := forkTopo(t)
	r := newRig(t, topo, InNetwork(), splitSource{})
	postSplitQueries(r)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(2*time.Second))

	// S's shared message serves both queries, but no single parent has data
	// for both: one multicast with per-destination subsets. Each parent
	// must forward only its own subset of S's row.
	fromS := 0
	for _, m := range r.atBS {
		if m.Origin == 3 {
			fromS++
			if len(m.QIDs) != 1 {
				t.Fatalf("relayed subset serves %v, want exactly one query", m.QIDs)
			}
		}
	}
	if fromS != 2 {
		t.Fatalf("S's row arrived %d times, want once per query via different parents", fromS)
	}
	// The multicast itself: exactly one result transmission from S.
	if got := r.coll.MessagesFrom("result", 3); got != 1 {
		t.Fatalf("S transmitted %d result messages, want 1 multicast", got)
	}
}

func TestNoMulticastFallsBackToUnicasts(t *testing.T) {
	topo := forkTopo(t)
	p := InNetwork()
	p.Multicast = false
	r := newRig(t, topo, p, splitSource{})
	postSplitQueries(r)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(2*time.Second))
	// Without multicast the split costs S two unicasts.
	if got := r.coll.MessagesFrom("result", 3); got != 2 {
		t.Fatalf("S transmitted %d result messages, want 2 unicasts", got)
	}
}

func TestLateAggregateForwardedUnmerged(t *testing.T) {
	// Chain BS—1—2. Node 1's slot for an epoch passes, then a partial for
	// that epoch arrives from node 2 (simulated by direct injection): node 1
	// must forward it immediately rather than merge into a dead buffer.
	topo := chain3(t)
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q := query.MustParse("SELECT MAX(light) EPOCH DURATION 4096")
	q.ID = 1
	r.flood(q, 4096*time.Millisecond)
	// Run past the first epoch entirely.
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(2*time.Second))
	delivered := len(r.atBS)

	// Inject a late partial for the long-past first epoch from node 2.
	st := query.NewAggState(query.Agg{Op: query.Max, Attr: field.AttrLight})
	st.Add(123)
	late := &ResultMsg{
		EpochT: sim.Time(4096 * time.Millisecond),
		QIDs:   []query.ID{1},
		States: []query.AggState{st},
	}
	r.engine.After(0, func() {
		r.medium.Send(&radio.Message{
			Kind:    radio.KindResult,
			Src:     2,
			Dests:   []topology.NodeID{1},
			Bytes:   resultMsgBytes(late),
			Payload: late,
		})
	})
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(4*time.Second))
	if len(r.atBS) != delivered+1 {
		t.Fatalf("late partial not forwarded: %d -> %d messages at BS", delivered, len(r.atBS))
	}
	got := r.atBS[len(r.atBS)-1]
	if v, _ := got.States[0].Result(); v != 123 {
		t.Fatalf("late partial mutated: %v", got.States)
	}
}

func TestRerouteCapStopsLoops(t *testing.T) {
	// All parents dead: the reroute cap must stop traffic rather than loop.
	topo := forkTopo(t)
	r := newRig(t, topo, InNetwork(), splitSource{})
	postSplitQueries(r)
	r.engine.Run(2 * time.Second)
	// Kill both parents before the first epoch.
	r.nodes[1].SetDown(true)
	r.nodes[2].SetDown(true)
	r.engine.Run(60 * time.Second)
	if len(r.atBS) != 0 {
		t.Fatalf("results arrived through dead parents: %d", len(r.atBS))
	}
	// Bounded traffic: S retries each epoch's message at most MaxReroutes
	// times; ~15 epochs × (1 + MaxReroutes) is the ceiling.
	if got := r.coll.MessagesFrom("result", 3); got > 16*(1+MaxReroutes) {
		t.Fatalf("reroute loop: S sent %d result messages", got)
	}
}

func TestRerouteExhaustionTracesDrops(t *testing.T) {
	// A permanently dead parent region: every abandoned result must be
	// attributable in the trace as a drop event naming the exhausted budget,
	// and only the stranded source may emit them.
	topo := forkTopo(t)
	r := newRig(t, topo, InNetwork(), splitSource{})
	postSplitQueries(r)
	r.engine.Run(2 * time.Second)
	r.nodes[1].SetDown(true)
	r.nodes[2].SetDown(true)
	r.engine.Run(60 * time.Second)

	var drops []trace.Event
	for _, e := range r.trace.Events() {
		if e.Kind == trace.KindDrop {
			drops = append(drops, e)
		}
	}
	if len(drops) == 0 {
		t.Fatal("no drop events traced for a dead parent region")
	}
	want := fmt.Sprintf("reroutes=%d", MaxReroutes)
	for _, e := range drops {
		if e.Node != 3 {
			t.Fatalf("drop traced at node %d, want only the source (3): %v", e.Node, e)
		}
		if !strings.Contains(e.Detail, want) {
			t.Fatalf("drop event %v does not name the exhausted budget %q", e, want)
		}
	}
	// Bounded abandonment: at most one drop per multicast leg (S splits
	// each epoch across its two parents) — no amplification loop.
	fires := 0
	for _, e := range r.trace.Events() {
		if e.Kind == trace.KindFire && e.Node == 3 {
			fires++
		}
	}
	if fires == 0 || len(drops) > 2*fires {
		t.Fatalf("drops=%d fires=%d: more abandonments than multicast legs", len(drops), fires)
	}
}

func TestSuspicionClearsOnRecovery(t *testing.T) {
	topo := forkTopo(t)
	r := newRig(t, topo, InNetwork(), splitSource{})
	postSplitQueries(r)
	r.engine.Run(2 * time.Second)
	r.nodes[1].SetDown(true)
	r.engine.Run(20 * time.Second)
	beforeRevive := len(r.atBS)
	if beforeRevive == 0 {
		t.Fatal("failover via P2 should keep some results flowing")
	}
	r.nodes[1].SetDown(false)
	r.engine.Run(80 * time.Second)
	if len(r.atBS) <= beforeRevive {
		t.Fatal("no results after revival")
	}
	// P1 must eventually carry traffic again (suspicion cleared by hearing
	// its transmissions).
	if r.coll.MessagesFrom("result", 1) == 0 {
		t.Fatal("revived parent never reused")
	}
}
