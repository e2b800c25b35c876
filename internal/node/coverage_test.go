package node

import (
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// stepSource returns per-node values that switch at a configured time —
// used to exercise sleep → wake transitions.
type stepSource struct {
	switchAt sim.Time
	before   map[topology.NodeID]float64
	after    map[topology.NodeID]float64
}

func (s stepSource) Reading(id topology.NodeID, a field.Attr, t sim.Time) float64 {
	if a == field.AttrNodeID {
		return float64(id)
	}
	if a != field.AttrLight {
		return 0
	}
	if t < s.switchAt {
		return s.before[id]
	}
	return s.after[id]
}

func TestWakeBroadcastWhenDataAppears(t *testing.T) {
	topo := chain3(t)
	// Both nodes start below the threshold (they will sleep); node 2's
	// light rises above it after 60s.
	src := stepSource{
		switchAt: sim.Time(60 * time.Second),
		before:   map[topology.NodeID]float64{1: 100, 2: 100},
		after:    map[topology.NodeID]float64{1: 100, 2: 900},
	}
	r := newRig(t, topo, InNetwork(), src)
	q := query.MustParse("SELECT light WHERE light >= 500 EPOCH DURATION 2048")
	q.ID = 1
	r.flood(q, 2048*time.Millisecond)
	r.engine.Run(55 * time.Second)
	if !r.nodes[1].Asleep() || !r.nodes[2].Asleep() {
		t.Fatal("both nodes should be asleep before the switch")
	}
	r.engine.Run(120 * time.Second)
	if r.nodes[2].Asleep() {
		t.Fatal("node 2 should have woken when its data appeared")
	}
	if got := r.coll.MessagesOf("wake"); got == 0 {
		t.Fatal("waking with data must broadcast a wake message")
	}
	if len(r.atBS) == 0 {
		t.Fatal("node 2's rows should flow after waking")
	}
}

func TestNodeWindowedViaRig(t *testing.T) {
	topo := chain3(t)
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q := query.MustParse("SELECT WINAVG(light, 4, 2) EPOCH DURATION 2048")
	q.ID = 1
	r.flood(q, sim.Time(2*2048*time.Millisecond))
	r.engine.Run(30 * time.Second)
	if len(r.atBS) == 0 {
		t.Fatal("no windowed reports at base station")
	}
	for _, m := range r.atBS {
		// Uniform field: node 2's light is constant 1000, so every window
		// aggregate equals 1000.
		if v, _ := m.Row.Get(field.AttrLight); m.Origin == 2 && v != 1000 {
			t.Fatalf("window value = %f", v)
		}
		if m.EpochT%sim.Time(2*2048*time.Millisecond) != 0 {
			t.Fatalf("report at %v off the slide schedule", m.EpochT)
		}
	}
}

func TestBeaconDigestRepairViaRig(t *testing.T) {
	topo := chain3(t)
	engine := sim.NewEngine()
	coll := metrics.NewCollector(topo.Size())
	rng := sim.NewRand(3)
	medium := radio.New(engine, topo, coll, rng.Fork(0), radio.Config{})
	nodes := make(map[topology.NodeID]*Node)
	for i := 1; i < topo.Size(); i++ {
		id := topology.NodeID(i)
		nodes[id] = New(Config{
			ID: id, Topo: topo, Engine: engine, Medium: medium,
			Source: field.UniformField{N: 3}, Policy: Baseline(),
			MaintenanceInterval: 10 * time.Second,
			Rand:                rng.Fork(int64(i)),
		})
	}
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	q.ID = 1
	// Node 2 is down during the flood.
	nodes[2].SetDown(true)
	medium.Send(&radio.Message{
		Kind: radio.KindQuery, Src: topology.BaseStation,
		Bytes:   QueryMsgBytes(q),
		Payload: &QueryMsg{Q: q, Start: 4096 * time.Millisecond},
	})
	engine.Run(3 * time.Second)
	if len(nodes[2].Queries()) != 0 {
		t.Fatal("down node must miss the flood")
	}
	nodes[2].SetDown(false)
	engine.Run(60 * time.Second)
	if len(nodes[2].Queries()) != 1 {
		t.Fatal("beacon digest repair failed")
	}
	if coll.MessagesOf("beacon") == 0 {
		t.Fatal("beacons should have been sent")
	}
}

func TestSendAggStatesClassSplit(t *testing.T) {
	// Two aggregation queries with identical predicates merge nowhere here
	// (no tier 1 in the rig); at a relay their partial states differ in
	// contributing sets, so the shared-message classes must split.
	topo := chain3(t)
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	// q1 over everything; q2 only matches node 2 (light=1000).
	q1 := query.MustParse("SELECT MAX(light) EPOCH DURATION 4096")
	q1.ID = 1
	q2 := query.MustParse("SELECT MAX(light) WHERE light >= 900 EPOCH DURATION 4096")
	q2.ID = 2
	r.flood(q1, 4096*time.Millisecond)
	r.flood(q2, 4096*time.Millisecond)
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(time.Second))

	// At node 1: q1's state has count 2 (own + node 2), q2's has count 1 —
	// different partials ⇒ two messages at the BS.
	perQID := map[query.ID]int{}
	for _, m := range r.atBS {
		for _, qid := range m.QIDs {
			perQID[qid]++
			for _, st := range m.States {
				switch qid {
				case 1:
					if st.Count != 2 {
						t.Fatalf("q1 count = %d, want 2", st.Count)
					}
				case 2:
					if st.Count != 1 {
						t.Fatalf("q2 count = %d, want 1", st.Count)
					}
				}
			}
		}
	}
	if perQID[1] != 1 || perQID[2] != 1 {
		t.Fatalf("messages per query = %v", perQID)
	}
}

func TestFiresAtBeforeStart(t *testing.T) {
	topo := chain3(t)
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 3})
	q := query.MustParse("SELECT light EPOCH DURATION 2048")
	q.ID = 1
	// Start far in the future: the aligned clock must not fire it early.
	r.flood(q, sim.Time(20*2048*time.Millisecond))
	r.engine.Run(30 * time.Second)
	if len(r.atBS) != 0 {
		t.Fatalf("query fired before its start: %d messages", len(r.atBS))
	}
	r.engine.Run(60 * time.Second)
	if len(r.atBS) == 0 {
		t.Fatal("query never started")
	}
}
