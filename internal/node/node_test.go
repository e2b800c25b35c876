package node

import (
	"slices"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// rig is a minimal harness driving Nodes directly (without the network
// package): a base-station handler that records result messages — as copies
// made at receipt, a message being its sender's again once delivered.
type rig struct {
	engine *sim.Engine
	topo   *topology.Topology
	medium *radio.Medium
	coll   *metrics.Collector
	trace  *tracing.Recorder
	nodes  map[topology.NodeID]*Node
	atBS   []*ResultMsg
}

func newRig(t *testing.T, topo *topology.Topology, p Policy, src field.Source, tune ...func(*Config)) *rig {
	t.Helper()
	engine := sim.NewEngine()
	coll := metrics.NewCollector(topo.Size())
	rng := sim.NewRand(3)
	medium := radio.New(engine, topo, coll, rng.Fork(0), radio.Config{})
	r := &rig{engine: engine, topo: topo, medium: medium, coll: coll,
		trace: tracing.New(tracing.TierNetwork, tracing.Unbounded), nodes: make(map[topology.NodeID]*Node)}
	for i := 1; i < topo.Size(); i++ {
		id := topology.NodeID(i)
		cfg := Config{
			ID: id, Topo: topo, Engine: engine, Medium: medium,
			Source: src, Policy: p, Rand: rng.Fork(int64(i)), Trace: r.trace,
		}
		for _, f := range tune {
			f(&cfg)
		}
		r.nodes[id] = New(cfg)
	}
	medium.SetHandler(topology.BaseStation, func(d radio.Delivery) {
		if !d.Addressed {
			return
		}
		if m, ok := d.Msg.Payload.(*ResultMsg); ok {
			r.atBS = append(r.atBS, &ResultMsg{
				EpochT: m.EpochT, Origin: m.Origin, Row: m.Row, Reroutes: m.Reroutes,
				QIDs: slices.Clone(m.QIDs), OwnQIDs: slices.Clone(m.OwnQIDs), States: slices.Clone(m.States),
			})
		}
	})
	return r
}

// flood injects a query from the base station.
func (r *rig) flood(q query.Query, start sim.Time) {
	r.medium.Send(&radio.Message{
		Kind: radio.KindQuery, Src: topology.BaseStation,
		Bytes:   QueryMsgBytes(q),
		Payload: &QueryMsg{Q: q, Start: start},
	})
}

func (r *rig) abort(qid query.ID) {
	r.medium.Send(&radio.Message{
		Kind: radio.KindAbort, Src: topology.BaseStation,
		Bytes:   AbortMsgBytes(),
		Payload: &AbortMsg{QID: qid},
	})
}

func chain3(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New([]topology.Point{{X: 0}, {X: 40}, {X: 80}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestFloodInstallsAndRebroadcastsOnce(t *testing.T) {
	topo := chain3(t)
	r := newRig(t, topo, Baseline(), field.UniformField{N: 3})
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	r.flood(q, 4096*time.Millisecond)
	r.engine.Run(2 * time.Second)
	for id, n := range r.nodes {
		if got := n.Queries(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("node %d queries = %v", id, got)
		}
	}
	// BS + node1 + node2 each transmit exactly once.
	if got := r.coll.MessagesOf("query"); got != 3 {
		t.Fatalf("query messages = %d, want 3", got)
	}
}

func TestTombstoneStopsAbortQueryStorm(t *testing.T) {
	topo := chain3(t)
	r := newRig(t, topo, Baseline(), field.UniformField{N: 3})
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	// Abort flooded immediately after the query: the floods race through
	// the network; the tombstone must keep total control traffic bounded.
	r.flood(q, 4096*time.Millisecond)
	r.abort(1)
	r.engine.Run(30 * time.Second)
	for id, n := range r.nodes {
		if got := n.Queries(); len(got) != 0 {
			t.Fatalf("node %d still has %v", id, got)
		}
	}
	total := r.coll.MessagesOf("query") + r.coll.MessagesOf("abort")
	if total > 2*(topo.Size())+2 {
		t.Fatalf("control storm: %d control messages", total)
	}
	// A re-flood of the same ID must be refused (tombstone permanence).
	r.flood(q, 8192*time.Millisecond)
	r.engine.Run(30 * time.Second)
	for id, n := range r.nodes {
		if got := n.Queries(); len(got) != 0 {
			t.Fatalf("node %d reinstalled tombstoned query: %v", id, got)
		}
	}
}

func TestIndependentPhasePreserved(t *testing.T) {
	// Baseline: a query flooded at t=1s with start 1s+epoch must fire at
	// 1s+epoch, not on the aligned grid.
	topo := chain3(t)
	r := newRig(t, topo, Baseline(), field.UniformField{N: 3})
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	start := sim.Time(time.Second + 4096*time.Millisecond)
	r.engine.Schedule(sim.Time(time.Second), func() { r.flood(q, start) })
	r.engine.Run(20 * time.Second)
	if len(r.atBS) == 0 {
		t.Fatal("no results at base station")
	}
	for _, m := range r.atBS {
		if (m.EpochT-start)%sim.Time(4096*time.Millisecond) != 0 {
			t.Fatalf("epoch %v not on the injection phase", m.EpochT)
		}
		if m.EpochT%sim.Time(4096*time.Millisecond) == 0 {
			t.Fatalf("epoch %v unexpectedly on the aligned grid", m.EpochT)
		}
	}
}

func TestAlignedSharedSampling(t *testing.T) {
	// Two same-epoch queries under the in-network policy: one shared result
	// message per node per epoch instead of two.
	topo := chain3(t)
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q1 := query.MustParse("SELECT light EPOCH DURATION 4096")
	q1.ID = 1
	q2 := query.MustParse("SELECT temp EPOCH DURATION 4096")
	q2.ID = 2
	r.flood(q1, 4096*time.Millisecond)
	r.flood(q2, 4096*time.Millisecond)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(time.Second))

	// One epoch elapsed: node2 sends 1 shared message (relayed by node1),
	// node1 sends its own + the relay. Total result messages = 3, and the
	// messages at the BS must each serve both queries.
	if got := r.coll.MessagesOf("result"); got != 3 {
		t.Fatalf("result messages = %d, want 3 (shared)", got)
	}
	for _, m := range r.atBS {
		if len(m.QIDs) != 2 {
			t.Fatalf("message serves %v, want both queries", m.QIDs)
		}
		if m.Row.Len() != 2 {
			t.Fatalf("row carries %d attrs, want union of 2", m.Row.Len())
		}
	}
}

func TestPerQueryMessagesInBaseline(t *testing.T) {
	topo := chain3(t)
	r := newRig(t, topo, Baseline(), field.UniformField{N: 3})
	q1 := query.MustParse("SELECT light EPOCH DURATION 4096")
	q1.ID = 1
	q2 := query.MustParse("SELECT temp EPOCH DURATION 4096")
	q2.ID = 2
	r.flood(q1, 4096*time.Millisecond)
	r.flood(q2, 4096*time.Millisecond)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(time.Second))
	// Per query: node2 origin (2 msgs) + node1 relay (2) + node1 origin (2).
	if got := r.coll.MessagesOf("result"); got != 6 {
		t.Fatalf("result messages = %d, want 6 (per-query)", got)
	}
	for _, m := range r.atBS {
		if len(m.QIDs) != 1 {
			t.Fatalf("baseline message serves %v, want exactly one query", m.QIDs)
		}
	}
}

func TestInNetworkAggregationMergesEnRoute(t *testing.T) {
	// Chain BS—1—2: MAX(light) over both nodes must arrive at the BS as a
	// single message per epoch (node 2's partial merged at node 1).
	topo := chain3(t)
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q := query.MustParse("SELECT MAX(light) EPOCH DURATION 4096")
	q.ID = 1
	r.flood(q, 4096*time.Millisecond)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(time.Second))
	if len(r.atBS) != 1 {
		t.Fatalf("messages at BS = %d, want 1 (merged partial)", len(r.atBS))
	}
	st := r.atBS[0].States
	if len(st) != 1 {
		t.Fatalf("states = %v", st)
	}
	v, ok := st[0].Result()
	if !ok {
		t.Fatal("empty state")
	}
	// UniformField over 3 nodes: light(2) = 1000 is the max.
	if v != 1000 {
		t.Fatalf("MAX = %f, want 1000", v)
	}
	if st[0].Count != 2 {
		t.Fatalf("count = %d, want 2 (both sensors)", st[0].Count)
	}
}

func TestDAGPrefersParentWithData(t *testing.T) {
	// Figure 2 topology: G (queried) must route via D (queried) instead of
	// its TinyDB parent C (not queried) once it learns D has data.
	topo, err := topology.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, topo, InNetwork(), field.UniformField{N: topo.Size()})
	// nodeid-based predicate covering D, G, H.
	q := query.MustParse("SELECT nodeid WHERE nodeid >= 4 AND nodeid <= 8 AND nodeid >= 4 EPOCH DURATION 4096")
	q.ID = 1
	// Restrict to D(4), G(7), H(8): nodeid in {4,7,8} is not an interval;
	// use >= 4 and exclude E(5), F(6) via light range instead. Simpler:
	// query nodeid >= 7 (G and H) plus D via a second query is overkill —
	// D, E, F, G, H = nodeid >= 4 matches the paper's q_i exactly.
	r.flood(q, 4096*time.Millisecond)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(2*time.Second))

	// All of D..H answered; G's message must have gone through D: D relays
	// more than its own single origin message.
	dTx := r.coll.MessagesFrom("result", topology.Fig2D)
	if dTx < 2 {
		t.Fatalf("D sent %d result messages; expected to relay G's and H's traffic", dTx)
	}
	// C must not relay: its only candidate child G diverted to D.
	if got := r.coll.MessagesFrom("result", topology.Fig2C); got != 0 {
		t.Fatalf("C sent %d result messages, want 0 (G diverted through D)", got)
	}
}

func TestSleepAndWake(t *testing.T) {
	topo := chain3(t)
	// Node 2 reads light=1000, node 1 reads 500 (UniformField over 3).
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q := query.MustParse("SELECT light WHERE light >= 900 EPOCH DURATION 2048")
	q.ID = 1
	r.flood(q, 2048*time.Millisecond)
	r.engine.Run(60 * time.Second)
	// Node 1 never matches and only relays node 2's traffic — addressed
	// traffic keeps it awake.
	if r.nodes[1].Asleep() {
		t.Fatal("active relay must not sleep")
	}
	if r.nodes[2].Asleep() {
		t.Fatal("node with data must not sleep")
	}

	// Now a query nobody matches: both nodes sleep.
	r2 := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q2 := query.MustParse("SELECT light WHERE light >= 2000 EPOCH DURATION 2048")
	q2.ID = 1
	r2.flood(q2, 2048*time.Millisecond)
	r2.engine.Run(60 * time.Second)
	if !r2.nodes[1].Asleep() || !r2.nodes[2].Asleep() {
		t.Fatal("idle nodes must sleep")
	}
	if got := r2.coll.MessagesOf("result"); got != 0 {
		t.Fatalf("result messages = %d, want 0", got)
	}
}

func TestAbortCancelsTraffic(t *testing.T) {
	topo := chain3(t)
	r := newRig(t, topo, Baseline(), field.UniformField{N: 3})
	q := query.MustParse("SELECT light EPOCH DURATION 2048")
	q.ID = 1
	r.flood(q, 2048*time.Millisecond)
	r.engine.Run(10 * time.Second)
	r.abort(1)
	r.engine.Run(11 * time.Second)
	count := r.coll.MessagesOf("result")
	r.engine.Run(40 * time.Second)
	if got := r.coll.MessagesOf("result"); got != count {
		t.Fatalf("result traffic continued after abort: %d -> %d", count, got)
	}
}

func TestResultMsgSubsets(t *testing.T) {
	m := &ResultMsg{
		QIDs: []query.ID{1, 2, 3},
		Subsets: []Subset{
			{Dest: 5, QIDs: []query.ID{1, 2}},
			{Dest: 6, QIDs: []query.ID{3}},
		},
	}
	if got := m.QueriesFor(5); len(got) != 2 {
		t.Fatalf("subset for 5 = %v", got)
	}
	if got := m.QueriesFor(9); got != nil {
		t.Fatalf("non-destination subset = %v", got)
	}
	m.Subsets = nil
	if got := m.QueriesFor(9); len(got) != 3 {
		t.Fatalf("nil subsets must mean all queries: %v", got)
	}
}

func TestMessageSizes(t *testing.T) {
	q := query.MustParse("SELECT light, temp WHERE light > 5")
	if QueryMsgBytes(q) <= 0 || AbortMsgBytes() <= 0 || beaconMsgBytes(2) <= 0 || wakeMsgBytes(2) <= 0 {
		t.Fatal("sizes must be positive")
	}
	var row field.Values
	row.Set(field.AttrLight, 1)
	row.Set(field.AttrTemp, 2)
	shared := &ResultMsg{QIDs: []query.ID{1, 2}, Row: row}
	single := &ResultMsg{QIDs: []query.ID{1}, Row: row}
	if resultMsgBytes(shared) <= resultMsgBytes(single) {
		t.Fatal("shared message carries per-query tags")
	}
	// One shared message is cheaper than two per-query messages.
	if resultMsgBytes(shared) >= 2*resultMsgBytes(single) {
		t.Fatal("sharing must be cheaper than duplication")
	}
}
