package radio

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
)

// refMedium is the medium as it was before receive airtime was read from
// per-sender totals and before deliver stopped visiting radios it does not
// call: deliver walks every radio in range of the sender, adds the airtime
// to each powered one's receive total, and calls those that can act on the
// message. Everything else — airtime, sender serialization,
// contention, the collision and backoff draws — is restated from the medium
// over a transmission record of its own. TestMediumMatchesReference drives it
// and Medium with the same seeded scripts.
type refMedium struct {
	cfg        Config
	engine     *sim.Engine
	topo       *topology.Topology
	rng        *sim.Rand
	coll       *metrics.Collector
	handlers   []Handler
	listening  []bool
	busyUntil  []sim.Time
	active     []activeTx
	interferes []bool
	rx         []time.Duration // receive airtime, accrued per delivery
}

// refTx is one message in flight on the reference medium.
type refTx struct {
	msg *Message
	try int
	air time.Duration
}

func newRefMedium(engine *sim.Engine, topo *topology.Topology, coll *metrics.Collector, rng *sim.Rand, cfg Config) *refMedium {
	cfg.setDefaults()
	n := topo.Size()
	m := &refMedium{
		cfg: cfg, engine: engine, topo: topo, rng: rng, coll: coll,
		handlers:   make([]Handler, n),
		listening:  make([]bool, n),
		busyUntil:  make([]sim.Time, n),
		interferes: make([]bool, n*n),
		rx:         make([]time.Duration, n),
	}
	reach := 2 * topo.RadioRange()
	for a := 0; a < n; a++ {
		pos := topo.Position(topology.NodeID(a))
		for b := a + 1; b < n; b++ {
			if pos.Dist(topo.Position(topology.NodeID(b))) <= reach {
				m.interferes[a*n+b] = true
				m.interferes[b*n+a] = true
			}
		}
	}
	coll.SetRxSource(func(id topology.NodeID) time.Duration { return m.rx[id] })
	return m
}

func (m *refMedium) SetHandler(id topology.NodeID, h Handler) { m.handlers[id] = h }
func (m *refMedium) SetListening(id topology.NodeID, on bool) { m.listening[id] = on }
func (m *refMedium) SetLossRate(r float64)                    { m.cfg.LossRate = r }

func (m *refMedium) Send(msg *Message) {
	if msg.Bytes <= 0 {
		msg.Bytes = 1
	}
	m.attempt(&refTx{msg: msg, try: 1})
}

func (m *refMedium) attempt(tx *refTx) {
	start := max(m.engine.Now(), m.busyUntil[tx.msg.Src])
	tx.air = m.cfg.Cstart + time.Duration(tx.msg.Bytes)*m.cfg.Ctrans
	m.busyUntil[tx.msg.Src] = start + tx.air
	m.engine.Schedule(start, func() { m.transmit(tx) })
}

func (m *refMedium) transmit(tx *refTx) {
	msg := tx.msg
	now := m.engine.Now()
	end := now + tx.air
	contenders := 0
	if m.cfg.CollisionFactor != 0 {
		row := m.interferes[int(msg.Src)*len(m.handlers):]
		for _, a := range m.active {
			if a.end > now && a.start < end && a.src != msg.Src && row[a.src] {
				contenders++
			}
		}
		m.active = slices.DeleteFunc(m.active, func(a activeTx) bool { return a.end <= now })
		m.active = append(m.active, activeTx{src: msg.Src, start: now, end: end})
	}
	m.coll.AddTxTime(msg.Src, tx.air)
	m.coll.CountMessage(msg.Kind, msg.Src, msg.Bytes)
	collided := false
	if tx.try <= m.cfg.MaxRetries {
		pOK := 1 - m.cfg.LossRate
		for i := 0; i < contenders; i++ {
			pOK *= 1 - m.cfg.CollisionFactor
		}
		if pOK < 1 {
			collided = m.rng.Float64() > pOK
		}
	}
	if collided {
		m.coll.CountRetransmission()
		backoff := time.Duration(tx.try)*m.cfg.BackoffBase +
			time.Duration(m.rng.Float64()*float64(m.cfg.BackoffBase))
		m.engine.Schedule(end+sim.Time(backoff), func() { tx.try++; m.attempt(tx) })
		return
	}
	m.engine.Schedule(end, func() { m.deliver(tx) })
}

// deliver is the eager delivery: every powered radio in range is charged,
// and the addressed, listening and declared-overhearing ones are called.
func (m *refMedium) deliver(tx *refTx) {
	msg := tx.msg
	for _, nb := range m.topo.Neighbors(msg.Src) {
		h := m.handlers[nb]
		if h == nil {
			continue
		}
		m.rx[nb] += tx.air
		addressed := msg.addressedTo(nb)
		if addressed || m.listening[nb] || slices.Contains(msg.Overhear, nb) {
			h(Delivery{To: nb, Addressed: addressed, Msg: msg})
		}
	}
	if msg.Undeliverable != nil {
		for _, dest := range msg.Dests {
			if m.handlers[dest] == nil || !m.topo.InRange(msg.Src, dest) {
				msg.Undeliverable(msg, dest)
			}
		}
	}
	if msg.Finished != nil {
		msg.Finished(msg)
	}
}

// scriptMedium is what a script needs of a medium.
type scriptMedium interface {
	Send(*Message)
	SetHandler(topology.NodeID, Handler)
	SetListening(topology.NodeID, bool)
	SetLossRate(float64)
}

// side is one medium under a script, with the log of everything it called.
type side struct {
	engine *sim.Engine
	coll   *metrics.Collector
	med    scriptMedium
	log    []string
	sent   int // messages sent, replies included: the next message's number
}

// spec is one scripted transmission, sent identically on both sides.
type spec struct {
	src             topology.NodeID
	dests, overhear []topology.NodeID
	bytes           int
	reply           bool
}

func (s *side) send(sp spec) {
	id := s.sent
	s.sent++
	kind := KindResult
	if sp.dests == nil {
		kind = KindBeacon
	}
	s.med.Send(&Message{
		Kind: kind, Src: sp.src, Dests: sp.dests, Overhear: sp.overhear, Bytes: sp.bytes,
		Payload: sp,
		Undeliverable: func(msg *Message, to topology.NodeID) {
			s.log = append(s.log, fmt.Sprintf("%v #%d nak %d", s.engine.Now(), id, to))
		},
		Finished: func(msg *Message) {
			s.log = append(s.log, fmt.Sprintf("%v #%d fin", s.engine.Now(), id))
		},
	})
}

// handler logs each call; an addressed receiver answers every third
// original message with a unicast back, sent from inside the delivery.
func (s *side) handler(id topology.NodeID) Handler {
	return func(d Delivery) {
		if d.To != id {
			panic(fmt.Sprintf("handler of %d handed a delivery to %d", id, d.To))
		}
		sp := d.Msg.Payload.(spec)
		s.log = append(s.log, fmt.Sprintf("%v %d>%d addressed=%v", s.engine.Now(), d.Msg.Src, id, d.Addressed))
		if d.Addressed && !sp.reply && (int(d.Msg.Src)+int(id)+len(s.log))%3 == 0 {
			s.send(spec{src: id, dests: []topology.NodeID{d.Msg.Src}, bytes: 8, reply: true})
		}
	}
}

// sortedSubset draws up to k distinct node IDs of n, ascending.
func sortedSubset(rng *sim.Rand, n, k int) []topology.NodeID {
	var ids []topology.NodeID
	for range 1 + rng.Intn(k) {
		if id := topology.NodeID(rng.Intn(n)); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// TestMediumMatchesReference drives the medium and the eager reference with
// one seeded script each seed — unicasts, multicasts and broadcasts, with
// declared overhearers, destinations out of range and the sender itself
// among them, radios switched off and on, listening marks set and cleared,
// collisions and link loss — and requires the same handler calls in the same
// order with the same Addressed flag, the same Undeliverable and Finished
// calls, and the same receive airtime at every node after every step.
//
// Dests and Overhear are ascending in every script: that is Message's
// documented precondition, which motes meet (node.TestSentListsAscend), and
// the medium merges the two lists in that order instead of checking it.
func TestMediumMatchesReference(t *testing.T) {
	reached := map[string]int{}
	for seed := int64(1); seed <= 24; seed++ {
		topo, err := topology.PaperGrid(4 + int(seed%3))
		if err != nil {
			t.Fatal(err)
		}
		n := topo.Size()
		cfg := Config{}
		if seed%2 == 0 {
			cfg.CollisionFactor = 0.2
		}
		if seed%4 < 2 {
			cfg.LossRate = 0.05
		}
		var sides [2]*side
		for i := range sides {
			s := &side{engine: sim.NewEngine(), coll: metrics.NewCollector(n)}
			if i == 0 {
				s.med = New(s.engine, topo, s.coll, sim.NewRand(seed), cfg)
			} else {
				s.med = newRefMedium(s.engine, topo, s.coll, sim.NewRand(seed), cfg)
			}
			for id := range n {
				s.med.SetHandler(topology.NodeID(id), s.handler(topology.NodeID(id)))
			}
			sides[i] = s
		}
		on := make([]bool, n)
		listening := make([]bool, n)
		for i := range on {
			on[i] = true
		}

		rng := sim.NewRand(1000 + seed)
		now := sim.Time(0)
		for step := 0; step < 400; step++ {
			now += sim.Time(rng.Intn(25)) * time.Millisecond
			var act func(*side)
			switch r := rng.Intn(20); {
			case r < 12:
				sp := spec{src: topology.NodeID(rng.Intn(n)), bytes: 1 + rng.Intn(40)}
				switch rng.Intn(5) {
				case 0: // broadcast
					reached["broadcast"]++
				case 1, 2:
					sp.dests = []topology.NodeID{topology.NodeID(rng.Intn(n))}
					reached["unicast"]++
				default:
					sp.dests = sortedSubset(rng, n, 4)
					reached["multicast"]++
				}
				if rng.Intn(2) == 0 {
					sp.overhear = sortedSubset(rng, n, 5)
				}
				if slices.Contains(sp.dests, sp.src) {
					reached["self as destination"]++
				}
				for _, d := range sp.dests {
					if d != sp.src && !topo.InRange(sp.src, d) {
						reached["destination out of range"]++
						break
					}
				}
				if sp.dests != nil && !slices.Contains(listening, true) {
					reached["addressed, nobody listening"]++
				}
				act = func(s *side) { s.send(sp) }
			case r < 15:
				id := topology.NodeID(rng.Intn(n))
				on[id] = !on[id]
				power := on[id]
				reached[fmt.Sprintf("radio on=%v", power)]++
				act = func(s *side) {
					if power {
						s.med.SetHandler(id, s.handler(id))
					} else {
						s.med.SetHandler(id, nil)
					}
				}
			case r < 17:
				// At most one radio listens at a time, so about half the
				// addressed traffic goes out while none does.
				id := topology.NodeID(rng.Intn(n))
				if at := slices.Index(listening, true); at >= 0 {
					id = topology.NodeID(at)
				}
				listening[id] = !listening[id]
				mark := listening[id]
				reached[fmt.Sprintf("listening=%v", mark)]++
				act = func(s *side) { s.med.SetListening(id, mark) }
			case r < 18:
				rate := []float64{0, 0.1, 0.3}[rng.Intn(3)]
				act = func(s *side) { s.med.SetLossRate(rate) }
			}
			for _, s := range sides {
				if act != nil {
					s.engine.Schedule(now, func() { act(s) })
				}
				s.engine.Run(now)
			}
			compareSides(t, seed, step, n, sides[0], sides[1])
		}
		for _, s := range sides {
			s.engine.RunAll()
		}
		compareSides(t, seed, -1, n, sides[0], sides[1])
		if got := sides[0].coll.Retransmissions(); got > 0 {
			reached["retransmission"]++
		}
		calls := 0
		for _, line := range sides[0].log {
			if strings.Contains(line, "addressed=") {
				calls++
			}
		}
		if got := sides[0].coll.HandlerCalls(); got != calls {
			t.Fatalf("seed %d: Collector.HandlerCalls = %d, the handlers were called %d times", seed, got, calls)
		}
	}
	t.Logf("reached %v", reached)
	for _, what := range []string{"broadcast", "unicast", "multicast", "self as destination",
		"destination out of range", "radio on=false", "radio on=true", "listening=true",
		"listening=false", "addressed, nobody listening", "retransmission"} {
		if reached[what] == 0 {
			t.Errorf("no script reached %q", what)
		}
	}
}

// compareSides fails the test at the first difference between the medium
// (a) and the reference (b) so far.
func compareSides(t *testing.T, seed int64, step, n int, a, b *side) {
	t.Helper()
	for i := range min(len(a.log), len(b.log)) {
		if a.log[i] != b.log[i] {
			t.Fatalf("seed %d step %d: call %d = %q, reference %q", seed, step, i, a.log[i], b.log[i])
		}
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("seed %d step %d: %d calls, reference %d", seed, step, len(a.log), len(b.log))
	}
	for id := range n {
		if got, want := a.coll.RxTime(topology.NodeID(id)), b.coll.RxTime(topology.NodeID(id)); got != want {
			t.Fatalf("seed %d step %d: node %d rx time %v, reference %v", seed, step, id, got, want)
		}
	}
}
