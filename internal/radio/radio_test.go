package radio

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// chain builds BS—1—2 with 40ft spacing and 50ft range: 0↔1 and 1↔2 are
// neighbors; 0 and 2 are not.
func chain(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New([]topology.Point{{X: 0}, {X: 40}, {X: 80}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

type harness struct {
	engine *sim.Engine
	topo   *topology.Topology
	coll   *metrics.Collector
	medium *Medium
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	topo := chain(t)
	engine := sim.NewEngine()
	coll := metrics.NewCollector(topo.Size())
	med := New(engine, topo, coll, sim.NewRand(1), cfg)
	return &harness{engine: engine, topo: topo, coll: coll, medium: med}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	h := newHarness(t, Config{})
	var got []Delivery
	for i := 0; i < 3; i++ {
		id := topology.NodeID(i)
		h.medium.SetHandler(id, func(d Delivery) { got = append(got, d) })
	}
	h.medium.Send(&Message{Kind: KindBeacon, Src: 1, Bytes: 10})
	h.engine.RunAll()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (both neighbors of node 1)", len(got))
	}
	for _, d := range got {
		if !d.Addressed {
			t.Fatal("broadcast is addressed to everyone")
		}
		if d.Msg.Src != 1 {
			t.Fatal("wrong source")
		}
	}
}

func TestUnicastOverheard(t *testing.T) {
	h := newHarness(t, Config{})
	var at0, at2 *Delivery
	h.medium.SetHandler(0, func(d Delivery) { at0 = &d })
	h.medium.SetHandler(2, func(d Delivery) { at2 = &d })
	h.medium.Send(&Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0}, Overhear: []topology.NodeID{2}, Bytes: 10})
	h.engine.RunAll()
	if at0 == nil || !at0.Addressed {
		t.Fatal("addressed receiver must get an addressed delivery")
	}
	if at2 == nil || at2.Addressed {
		t.Fatal("a declared overhearer must overhear the unicast (broadcast nature of the channel)")
	}
}

func TestOutOfRangeNotDelivered(t *testing.T) {
	h := newHarness(t, Config{})
	heard := false
	h.medium.SetHandler(2, func(Delivery) { heard = true })
	h.medium.Send(&Message{Kind: KindBeacon, Src: 0, Bytes: 10})
	h.engine.RunAll()
	if heard {
		t.Fatal("node 2 is out of range of node 0")
	}
}

func TestAirtimeAccrual(t *testing.T) {
	h := newHarness(t, Config{Cstart: 2 * time.Millisecond, Ctrans: 100 * time.Microsecond})
	h.medium.Send(&Message{Kind: KindResult, Src: 1, Bytes: 30})
	h.engine.RunAll()
	want := 2*time.Millisecond + 30*100*time.Microsecond
	if got := h.coll.TxTime(1); got != want {
		t.Fatalf("tx time = %v, want %v", got, want)
	}
	if h.coll.Messages() != 1 || h.coll.MessagesOf("result") != 1 {
		t.Fatalf("counts: %s", h.coll)
	}
}

func TestSenderSerialization(t *testing.T) {
	// Two back-to-back sends from one node must not overlap: second delivery
	// lands at 2× airtime.
	h := newHarness(t, Config{Cstart: time.Millisecond, Ctrans: 0})
	var deliveredAt []sim.Time
	h.medium.SetHandler(0, func(Delivery) { deliveredAt = append(deliveredAt, h.engine.Now()) })
	h.medium.Send(&Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0}, Bytes: 10})
	h.medium.Send(&Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0}, Bytes: 10})
	h.engine.RunAll()
	if len(deliveredAt) != 2 {
		t.Fatalf("deliveries = %d", len(deliveredAt))
	}
	air := h.medium.Airtime(10)
	if deliveredAt[0] != sim.Time(air) || deliveredAt[1] != sim.Time(2*air) {
		t.Fatalf("delivery times = %v, want %v and %v", deliveredAt, air, 2*air)
	}
}

func TestSleepingNodeHearsNothing(t *testing.T) {
	h := newHarness(t, Config{})
	heard := 0
	h.medium.SetHandler(0, func(Delivery) { heard++ })
	h.medium.SetHandler(0, nil) // sleep
	h.medium.Send(&Message{Kind: KindBeacon, Src: 1, Bytes: 5})
	h.engine.RunAll()
	if heard != 0 {
		t.Fatal("detached node must not receive")
	}
}

func TestCollisionsCauseRetransmissions(t *testing.T) {
	// Force heavy contention: many simultaneous senders in range, high
	// collision factor.
	topo, err := topology.PaperGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	coll := metrics.NewCollector(topo.Size())
	med := New(engine, topo, coll, sim.NewRand(7), Config{CollisionFactor: 0.5})
	for i := 0; i < topo.Size(); i++ {
		med.SetHandler(topology.NodeID(i), func(Delivery) {})
	}
	for i := 1; i < topo.Size(); i++ {
		med.Send(&Message{Kind: KindResult, Src: topology.NodeID(i), Bytes: 20})
	}
	engine.RunAll()
	if coll.Retransmissions() == 0 {
		t.Fatal("heavy contention must cause retransmissions")
	}
	// Reliability: despite collisions, the final retry always succeeds, so
	// nothing is dropped.
	if coll.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0 (lossless assumption)", coll.Dropped())
	}
	// Retransmissions cost airtime: total messages > initial sends.
	if coll.Messages() <= topo.Size()-1 {
		t.Fatal("retries must be counted as messages")
	}
}

func TestNoCollisionsWhenFactorZero(t *testing.T) {
	h := newHarness(t, Config{})
	for i := 0; i < 3; i++ {
		h.medium.SetHandler(topology.NodeID(i), func(Delivery) {})
	}
	for i := 0; i < 3; i++ {
		h.medium.Send(&Message{Kind: KindResult, Src: topology.NodeID(i), Bytes: 20})
	}
	h.engine.RunAll()
	if h.coll.Retransmissions() != 0 {
		t.Fatal("collision factor 0 must disable collisions")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, time.Duration) {
		topo, _ := topology.PaperGrid(4)
		engine := sim.NewEngine()
		coll := metrics.NewCollector(topo.Size())
		med := New(engine, topo, coll, sim.NewRand(42), Config{CollisionFactor: 0.3})
		for i := 0; i < topo.Size(); i++ {
			med.SetHandler(topology.NodeID(i), func(Delivery) {})
		}
		for i := 1; i < topo.Size(); i++ {
			med.Send(&Message{Kind: KindResult, Src: topology.NodeID(i), Bytes: 25})
		}
		engine.RunAll()
		return coll.Messages(), coll.TotalTxTime()
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%v) vs (%d,%v)", m1, t1, m2, t2)
	}
}

func TestMulticastAddressing(t *testing.T) {
	h := newHarness(t, Config{})
	msg := &Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0, 2}, Bytes: 10}
	addressed := 0
	for _, id := range []topology.NodeID{0, 2} {
		h.medium.SetHandler(id, func(d Delivery) {
			if d.Addressed {
				addressed++
			}
		})
	}
	h.medium.Send(msg)
	h.engine.RunAll()
	if addressed != 2 {
		t.Fatalf("addressed deliveries = %d, want 2", addressed)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindResult: "result", KindQuery: "query", KindAbort: "abort",
		KindBeacon: "beacon", KindWake: "wake",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestZeroByteMessageClamped(t *testing.T) {
	h := newHarness(t, Config{})
	h.medium.SetHandler(0, func(Delivery) {})
	h.medium.Send(&Message{Kind: KindBeacon, Src: 1, Bytes: 0})
	h.engine.RunAll()
	if h.coll.Bytes() != 1 {
		t.Fatalf("bytes = %d, want clamped to 1", h.coll.Bytes())
	}
}

// The link-layer "no ACK" signal: one call per addressed destination whose
// radio is off or out of range when the transmission completes, handed the
// message itself so a sender needs one func for all its traffic — and a
// retried message keeps its identity across attempts.
func TestUndeliverableNamesMessageAndDestination(t *testing.T) {
	h := newHarness(t, Config{CollisionFactor: 0.9, MaxRetries: 3})
	h.medium.SetHandler(0, func(Delivery) {}) // node 0 up, node 2 down
	type noAck struct {
		msg *Message
		to  topology.NodeID
	}
	var got []noAck
	report := func(msg *Message, to topology.NodeID) { got = append(got, noAck{msg, to}) }
	a := &Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0, 2}, Bytes: 10, Undeliverable: report}
	b := &Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0}, Bytes: 10, Undeliverable: report}
	c := &Message{Kind: KindResult, Src: 0, Dests: []topology.NodeID{2}, Bytes: 10, Undeliverable: report}
	h.medium.Send(a)
	h.medium.Send(b)
	h.medium.Send(c) // contends with a and b: collisions and retries
	h.engine.RunAll()
	if h.coll.Retransmissions() == 0 {
		t.Fatal("the scenario must exercise retries")
	}
	want := map[noAck]bool{{a, 2}: true, {c, 2}: true}
	if len(got) != len(want) {
		t.Fatalf("undeliverable reports = %+v, want a→2 and c→2", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected undeliverable report: message from %d to %d", g.msg.Src, g.to)
		}
	}
}

// star is node 1 with five neighbors — 0, 2, 3, 4 and 6 — and node 5 two
// hops out, behind 2.
func star(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.New([]topology.Point{
		{X: 0}, {X: 40}, {X: 80}, {X: 40, Y: 40}, {X: 40, Y: -40}, {X: 120}, {X: 20, Y: 30},
	}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// A transmission calls only the radios that can act on it — its addressed
// receivers, its declared overhearers, the listening radios; never one that
// is off — in neighbor order, then reports the unreachable destinations and
// finishes, exactly once. Receive airtime is charged to every powered radio
// in range, called or not.
func TestDispatchCallsOnlyThoseWhoCanAct(t *testing.T) {
	ids := func(ids ...topology.NodeID) []topology.NodeID { return ids }
	cases := []struct {
		name            string
		dests, overhear []topology.NodeID
		want            string
	}{
		{"unicast", ids(0), ids(2, 3), "0A 2 4 fin"},
		{"multicast", ids(0, 3), nil, "0A 4 nak3 fin"},
		{"broadcast", nil, ids(2), "0A 2A 4A 6A fin"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := star(t)
			engine := sim.NewEngine()
			coll := metrics.NewCollector(topo.Size())
			med := New(engine, topo, coll, sim.NewRand(1), Config{})
			var log []string
			for i := range topo.Size() {
				id := topology.NodeID(i)
				med.SetHandler(id, func(d Delivery) {
					if d.To != id {
						t.Errorf("handler of %d handed a delivery to %d", id, d.To)
					}
					if d.Addressed {
						log = append(log, fmt.Sprintf("%dA", id))
					} else {
						log = append(log, fmt.Sprint(id))
					}
				})
			}
			med.SetHandler(3, nil) // down: neither called nor charged, even listening
			med.SetListening(3, true)
			med.SetListening(4, true)
			msg := &Message{
				Kind: KindResult, Src: 1, Dests: c.dests, Overhear: c.overhear, Bytes: 10,
				Undeliverable: func(_ *Message, to topology.NodeID) { log = append(log, fmt.Sprintf("nak%d", to)) },
				Finished:      func(*Message) { log = append(log, "fin") },
			}
			med.Send(msg)
			engine.RunAll()
			if got := strings.Join(log, " "); got != c.want {
				t.Fatalf("calls = %q, want %q", got, c.want)
			}
			air := med.Airtime(10)
			for i := range topo.Size() {
				want := time.Duration(0)
				if id := topology.NodeID(i); id != 3 && topo.InRange(1, id) && id != 1 {
					want = air
				}
				if got := coll.RxTime(topology.NodeID(i)); got != want {
					t.Errorf("node %d rx time = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// Clearing the mark stops the unaddressed calls; the airtime is still charged.
func TestListeningMarkIsPerRadio(t *testing.T) {
	h := newHarness(t, Config{})
	heard := 0
	h.medium.SetHandler(2, func(Delivery) { heard++ })
	send := func() {
		h.medium.Send(&Message{Kind: KindResult, Src: 1, Dests: []topology.NodeID{0}, Bytes: 10})
		h.engine.RunAll()
	}
	send()
	h.medium.SetListening(2, true)
	send()
	h.medium.SetListening(2, false)
	send()
	if heard != 1 {
		t.Fatalf("unaddressed neighbor called %d times, want 1 (only while listening)", heard)
	}
	if got, want := h.coll.RxTime(2), 3*h.medium.Airtime(10); got != want {
		t.Fatalf("rx time = %v, want %v: every transmission heard is charged", got, want)
	}
}

// BenchmarkDeliver is one transmission from an interior PaperGrid(12) mote,
// sent and delivered, with every radio powered: a relay unicast to its best
// upper neighbor (nobody else can act on it) and a broadcast (everybody
// can). It reports handler calls per transmission beside ns/op.
func BenchmarkDeliver(b *testing.B) {
	topo, err := topology.PaperGrid(12)
	if err != nil {
		b.Fatal(err)
	}
	const src = topology.NodeID(6*12 + 6)
	for _, c := range []struct {
		name  string
		dests []topology.NodeID
	}{
		{"unicast", topo.UpperNeighbors(src)[:1]},
		{"broadcast", nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			engine := sim.NewEngine()
			med := New(engine, topo, metrics.NewCollector(topo.Size()), sim.NewRand(1), Config{})
			calls := 0
			for i := range topo.Size() {
				med.SetHandler(topology.NodeID(i), func(Delivery) { calls++ })
			}
			msg := &Message{Kind: KindResult, Src: src, Dests: c.dests, Bytes: 20}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				med.Send(msg)
				engine.RunAll()
			}
			b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
		})
	}
}
