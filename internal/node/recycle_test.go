package node

import (
	"slices"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Regression: stateListsEqual matched a state to the first state of the same
// aggregate whatever its bucket, so a list holding two buckets of one
// aggregate never equalled even itself, and at any relay that had merged
// children from two buckets GROUP BY queries with identical partials rode
// separate messages — against §3.2.2's "one data message ... among all of the
// queries whose partial aggregation value are the same".
func TestGroupedPartialsShareOneMessage(t *testing.T) {
	// BS — R — {A, B}: relay 1 merges its own bucket with its children's two.
	topo, err := topology.New([]topology.Point{{X: 0}, {X: 40}, {X: 80, Y: 10}, {X: 80, Y: -10}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, topo, InNetwork(), field.UniformField{N: 4})
	for id := query.ID(1); id <= 2; id++ {
		q := query.MustParse("SELECT MAX(light) GROUP BY nodeid BUCKET 1 EPOCH DURATION 4096")
		q.ID = id
		r.flood(q, 4096*time.Millisecond)
	}
	r.engine.Run(sim.Time(4096*time.Millisecond) + sim.Time(time.Second))

	if got := r.coll.MessagesFrom("result", 1); got != 1 {
		t.Fatalf("relay sent %d result messages for two queries with identical partials, want 1 packed", got)
	}
	if len(r.atBS) != 1 {
		t.Fatalf("messages at BS = %d, want 1", len(r.atBS))
	}
	m := r.atBS[0]
	if !slices.Equal(m.QIDs, []query.ID{1, 2}) || len(m.States) != 3 {
		t.Fatalf("packed message serves %v with %d states, want both queries and one state per bucket", m.QIDs, len(m.States))
	}
	// The three buckets ride, and are priced, once for the two queries.
	if got, want := resultMsgBytes(m), cost.HeaderBytes+3*cost.BytesPerAgg+2*cost.BytesPerQueryTag; got != want {
		t.Fatalf("packed message priced at %d bytes, want %d", got, want)
	}
}

// The beacon record is recycled, so its digest must be a copy made at the
// send: a query installed while the beacon is on the air is not in it.
func TestBeaconDigestIsAsOfSend(t *testing.T) {
	topo := chain3(t)
	const interval = 10 * time.Second
	r := newRig(t, topo, Baseline(), field.UniformField{N: 3}, func(c *Config) { c.MaintenanceInterval = interval })
	var heard [][]query.ID // node 1's digests as the base station received them
	r.medium.SetHandler(topology.BaseStation, func(d radio.Delivery) {
		if bm, ok := d.Msg.Payload.(*BeaconMsg); ok && d.Msg.Src == 1 {
			heard = append(heard, slices.Clone(bm.QIDs))
		}
	})
	q1 := query.MustParse("SELECT light EPOCH DURATION 4096")
	q1.ID = 1
	r.flood(q1, 4096*time.Millisecond)

	// Node 1's first beacon goes out at interval + interval/3; a millisecond
	// later it is still on the air.
	sent := sim.Time(interval + interval/3)
	r.engine.Run(sent + sim.Time(time.Millisecond))
	if r.coll.MessagesFrom("beacon", 1) != 1 || len(heard) != 0 {
		t.Fatalf("beacon not in flight: sent %d, heard %d", r.coll.MessagesFrom("beacon", 1), len(heard))
	}
	q2 := query.MustParse("SELECT temp EPOCH DURATION 4096")
	q2.ID = 2
	r.nodes[1].install(q2, sent+sim.Time(q2.Epoch))

	r.engine.Run(sent + sim.Time(interval) + sim.Time(time.Second))
	if len(heard) != 2 {
		t.Fatalf("heard %d beacons from node 1, want 2", len(heard))
	}
	if !slices.Equal(heard[0], []query.ID{1}) {
		t.Fatalf("digest in flight = %v, want [1]: the query installed after the send leaked into it", heard[0])
	}
	if !slices.Equal(heard[1], []query.ID{1, 2}) {
		t.Fatalf("next digest = %v, want [1 2]", heard[1])
	}
}

// Once free lists and scratch have reached their size, a mote's result path
// — sample, own message, relay hop, merge, pack, route, delivery — allocates
// nothing: every message is one the medium handed back.
func TestResultPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cases := map[string][]string{
		// Node 2's row takes one relay hop at node 1, beside node 1's own.
		"acquisition relay hop": {"SELECT light EPOCH DURATION 2048"},
		// Node 1's slot merges node 2's partials, splits the two queries into
		// classes (different contributing sets) and sends both.
		"aggregation slot": {
			"SELECT MAX(light), AVG(light) EPOCH DURATION 2048",
			"SELECT MAX(light), AVG(light) WHERE light >= 900 EPOCH DURATION 2048",
		},
	}
	for name, texts := range cases {
		r := newRig(t, chain3(t), InNetwork(), field.UniformField{N: 3}, func(c *Config) { c.Trace = nil })
		results := 0
		r.medium.SetHandler(topology.BaseStation, func(d radio.Delivery) {
			if _, ok := d.Msg.Payload.(*ResultMsg); ok && d.Addressed {
				results++
			}
		})
		for i, text := range texts {
			q := query.MustParse(text)
			q.ID = query.ID(i + 1)
			r.flood(q, 2048*time.Millisecond)
		}
		epoch := func() { r.engine.Run(r.engine.Now() + sim.Time(2048*time.Millisecond)) }
		for i := 0; i < 8; i++ {
			epoch()
		}
		results = 0
		if got := testing.AllocsPerRun(20, epoch); got != 0 {
			t.Errorf("%s: %v allocations per epoch, want 0", name, got)
		}
		if results < 2*21 {
			t.Errorf("%s: %d result messages reached the base station over 21 epochs; the path did not run", name, results)
		}
	}
}
