// Package radio simulates the packet-level wireless medium: broadcast
// delivery within radio range, per-message airtime (Cstart + Ctrans·len),
// carrier queueing per node, and contention-dependent collisions with
// backoff and retransmission.
//
// This is the substitute for TOSSIM's packet-level radio stack (§4.1). Two
// properties of real sensor radios matter to the paper and are reproduced
// faithfully:
//
//   - the *broadcast nature* of the channel: every neighbor hears every
//     transmission, addressed or not — it is charged the receive airtime —
//     which is what lets the in-network optimizer piggyback information and
//     learn which neighbors hold data for which queries (§3.2.2). Only the
//     radios that can act on a transmission are called with it: its
//     addressed receivers, the overhearers the sender declares, and radios
//     marked listening;
//   - *contention*: the more messages on the air in a neighborhood, the more
//     collisions and retransmissions, which is why cutting the number of
//     result messages saves more than proportionally (§4.3's observation
//     that savings can exceed the 7/8 analytic bound).
//
// The paper otherwise assumes a lossless environment; with retries enabled
// (the default) delivery is eventually reliable.
package radio

import (
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Kind classifies messages for accounting; the collector that counts by it
// owns the enumeration.
type Kind = metrics.Kind

// Message kinds.
const (
	KindResult = metrics.KindResult
	KindQuery  = metrics.KindQuery
	KindAbort  = metrics.KindAbort
	KindBeacon = metrics.KindBeacon
	KindWake   = metrics.KindWake
)

// Message is one packet on the air. Payloads are passed by reference rather
// than serialized; Bytes carries the on-air length the payload would have.
// A Message belongs to the medium from Send until its delivery and must not
// be sent again in between.
type Message struct {
	Kind Kind
	Src  topology.NodeID
	// Dests lists the addressed receivers: nil means broadcast, one entry is
	// a unicast, several entries are a multicast (§3.2.2 sends one multicast
	// when different queries need different parents). The medium only reads
	// it, so senders may pass a slice of a long-lived list.
	Dests []topology.NodeID
	// Overhear lists the unaddressed in-range radios that can act on the
	// message; only they, the addressed receivers and the listening radios
	// are called with it. Every powered radio in range is charged the
	// receive airtime regardless. Like Dests it is only read.
	Overhear []topology.NodeID
	Bytes    int
	Payload  any
	// Undeliverable, if set, is invoked once per addressed destination whose
	// radio is off (failed node) when the transmission completes — the
	// link-layer "no ACK" signal senders use for failover routing. It is
	// handed the message, so one func serves everything a sender transmits.
	Undeliverable func(msg *Message, to topology.NodeID)
	// Finished, if set, is invoked once when the medium is done with the
	// message: its delivery is over — every receiver's handler and every
	// Undeliverable call has returned — and nothing will read it again. A
	// collided attempt is not finished. A sender that sets it may reuse the
	// message and its payload from then on.
	Finished func(msg *Message)

	// In-flight state: the attempt number and its airtime. The message is
	// its own event record — the engine fires it as a txStart, txRetry or
	// txEnd — so a hop costs no closure.
	medium *Medium
	try    int
	air    time.Duration
}

// The three events in the life of a transmission attempt.
type (
	txStart Message // the sender's radio is free: put the message on the air
	txRetry Message // backoff after a collision is over: queue the next attempt
	txEnd   Message // the airtime is over: deliver
)

func (t *txStart) Fire() { msg := (*Message)(t); msg.medium.transmit(msg) }
func (t *txRetry) Fire() { msg := (*Message)(t); msg.try++; msg.medium.attempt(msg) }
func (t *txEnd) Fire()   { msg := (*Message)(t); msg.medium.deliver(msg) }

// addressedTo reports whether id is an addressed receiver.
func (m *Message) addressedTo(id topology.NodeID) bool {
	if m.Dests == nil {
		return true
	}
	for _, d := range m.Dests {
		if d == id {
			return true
		}
	}
	return false
}

// Delivery hands a received message to a node. Addressed is false for
// overheard traffic — delivered to a declared overhearer or a listening
// radio because the channel is broadcast.
type Delivery struct {
	To        topology.NodeID
	Addressed bool
	Msg       *Message
}

// Handler consumes deliveries for one node.
type Handler func(Delivery)

// Config tunes the medium.
type Config struct {
	// Cstart is the per-message startup airtime (default 2 ms).
	Cstart time.Duration
	// Ctrans is the airtime per byte (default 208 µs ≈ 38.4 kbps).
	Ctrans time.Duration
	// CollisionFactor is the per-contender collision probability; the
	// probability a transmission with k concurrent in-range contenders
	// collides is 1 − (1−CollisionFactor)^k. Zero disables collisions.
	CollisionFactor float64
	// LossRate is the per-transmission probability of a contention-free
	// link-layer loss (fading, interference). Lost transmissions follow
	// the same backoff/retry path as collisions. Zero disables it.
	LossRate float64
	// MaxRetries bounds collision retries per message (default 5). The
	// final retry always succeeds, matching the paper's lossless
	// assumption while still costing airtime for every attempt.
	MaxRetries int
	// BackoffBase is the base retransmission backoff (default 20 ms);
	// attempt i waits i·BackoffBase plus uniform jitter of the same scale.
	BackoffBase time.Duration
}

// DefaultCollisionFactor makes contention visible without dominating.
const DefaultCollisionFactor = 0.05

func (c *Config) setDefaults() {
	if c.Cstart == 0 {
		c.Cstart = 2 * time.Millisecond
	}
	if c.Ctrans == 0 {
		c.Ctrans = 208 * time.Microsecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 5
	}
	if c.BackoffBase == 0 {
		c.BackoffBase = 20 * time.Millisecond
	}
}

// Medium is the shared radio channel.
type Medium struct {
	cfg      Config
	engine   *sim.Engine
	topo     *topology.Topology
	rng      *sim.Rand
	coll     *metrics.Collector
	tracer   *trace.Buffer
	handlers []Handler
	// listening marks the radios called with every transmission they hear.
	listening []bool
	// busyUntil serializes each node's transmissions (half-duplex radio).
	busyUntil []sim.Time
	// active tracks in-flight transmissions for the contention estimate,
	// when the count can matter (see transmit).
	active []activeTx
	// interferes is the n×n matrix, row-major, of node pairs within
	// interference range (twice the radio range) of each other.
	interferes []bool
}

type activeTx struct {
	src        topology.NodeID
	start, end sim.Time
}

// New builds a medium over the topology, driven by the engine, accounting
// into coll, with randomness from rng.
func New(engine *sim.Engine, topo *topology.Topology, coll *metrics.Collector, rng *sim.Rand, cfg Config) *Medium {
	cfg.setDefaults()
	n := topo.Size()
	m := &Medium{
		cfg:        cfg,
		engine:     engine,
		topo:       topo,
		rng:        rng,
		coll:       coll,
		handlers:   make([]Handler, n),
		listening:  make([]bool, n),
		busyUntil:  make([]sim.Time, n),
		interferes: make([]bool, n*n),
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
	return m
}

// SetTracer attaches a structured event log; nil detaches it. Attach it
// before the first Send: the retry line's contender count covers only the
// transmissions seen while a tracer (or collisions) was on.
func (m *Medium) SetTracer(t *trace.Buffer) { m.tracer = t }

// SetLossRate overrides the per-transmission loss probability at runtime —
// the burst-loss hook used by chaos scenarios to model time-varying link
// quality (interference bursts, weather fades). Call it only from within an
// engine callback, like every other mutation of a running simulation. The
// rate is clamped to [0, 1).
func (m *Medium) SetLossRate(r float64) {
	if r < 0 {
		r = 0
	}
	if r >= 1 {
		r = 0.999
	}
	m.cfg.LossRate = r
}

// LossRate returns the current per-transmission loss probability.
func (m *Medium) LossRate() float64 { return m.cfg.LossRate }

// SetHandler registers the receive callback for a node. Passing nil detaches
// the node (it stops hearing traffic — used for sleep mode).
func (m *Medium) SetHandler(id topology.NodeID, h Handler) {
	m.handlers[id] = h
}

// SetListening marks a radio to be called with every transmission it hears,
// addressed or not — for a node that acts on whatever a neighbor sends.
func (m *Medium) SetListening(id topology.NodeID, on bool) {
	m.listening[id] = on
}

// Airtime returns the on-air duration of a message of the given length.
func (m *Medium) Airtime(bytes int) time.Duration {
	return m.cfg.Cstart + time.Duration(bytes)*m.cfg.Ctrans
}

// Send queues msg for transmission from msg.Src. The message is transmitted
// when the sender's radio is free, may collide and retry, and is heard by
// every in-range neighbor when it completes (see deliver).
func (m *Medium) Send(msg *Message) {
	if msg.Bytes <= 0 {
		msg.Bytes = 1
	}
	msg.medium = m
	msg.try = 1
	m.attempt(msg)
}

// attempt reserves the sender's radio for the message's next try.
func (m *Medium) attempt(msg *Message) {
	start := m.engine.Now()
	if m.busyUntil[msg.Src] > start {
		start = m.busyUntil[msg.Src]
	}
	msg.air = m.Airtime(msg.Bytes)
	m.busyUntil[msg.Src] = start + msg.air
	m.engine.ScheduleAction(start, (*txStart)(msg))
}

// transmit puts the message on the air: accrues airtime, decides collision,
// and either schedules delivery or a retry.
func (m *Medium) transmit(msg *Message) {
	now := m.engine.Now()
	end := now + msg.air

	// The contender count reaches only a collision draw and a trace line;
	// without either, in-flight transmissions are not tracked.
	contenders := 0
	if m.cfg.CollisionFactor != 0 || m.tracer != nil {
		contenders = m.contention(msg.Src, now, end)
		m.pruneActive(now)
		m.active = append(m.active, activeTx{src: msg.Src, start: now, end: end})
	}

	// Every attempt costs airtime and is counted (§4.1).
	m.coll.AddTxTime(msg.Src, msg.air)
	m.coll.CountMessage(msg.Kind, msg.Src, msg.Bytes)
	if m.tracer != nil {
		m.tracer.Emitf(now, trace.KindTx, msg.Src, "%s %dB try=%d dests=%v",
			msg.Kind, msg.Bytes, msg.try, msg.Dests)
	}

	collided := false
	if msg.try <= m.cfg.MaxRetries {
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
		if m.tracer != nil {
			m.tracer.Emitf(now, trace.KindRetry, msg.Src, "%s contenders=%d try=%d",
				msg.Kind, contenders, msg.try)
		}
		backoff := time.Duration(msg.try)*m.cfg.BackoffBase +
			time.Duration(m.rng.Float64()*float64(m.cfg.BackoffBase))
		m.engine.ScheduleAction(end+sim.Time(backoff), (*txRetry)(msg))
		return
	}
	m.engine.ScheduleAction(end, (*txEnd)(msg))
}

// deliver charges a completed transmission to every powered radio in range
// and hands it to those that can act on it — addressed, declared overhearers,
// listening — reports addressed destinations that could not hear it, and
// gives the message back to its sender.
func (m *Medium) deliver(msg *Message) {
	air := msg.air
	for _, nb := range m.topo.Neighbors(msg.Src) {
		h := m.handlers[nb]
		if h == nil {
			continue // radio off (failed node)
		}
		// Every powered radio in range spends the airtime receiving,
		// addressed or merely overhearing.
		m.coll.AddRxTime(nb, air)
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

// contention counts in-flight transmissions overlapping [start, end] from
// senders within interference range (twice the radio range) of src.
func (m *Medium) contention(src topology.NodeID, start, end sim.Time) int {
	row := m.interferes[int(src)*len(m.handlers):]
	n := 0
	for _, tx := range m.active {
		if tx.end <= start || tx.start >= end || tx.src == src {
			continue
		}
		if row[tx.src] {
			n++
		}
	}
	return n
}

func (m *Medium) pruneActive(now sim.Time) {
	kept := m.active[:0]
	for _, tx := range m.active {
		if tx.end > now {
			kept = append(kept, tx)
		}
	}
	m.active = kept
}
