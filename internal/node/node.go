package node

import (
	"slices"
	"sort"
	"time"

	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// Config wires a Node into a simulation.
type Config struct {
	ID     topology.NodeID
	Topo   *topology.Topology
	Engine *sim.Engine
	Medium *radio.Medium
	Source field.Source
	Policy Policy
	// MaintenanceInterval is the period of network-maintenance beacons
	// (§4.1 counts them); zero disables maintenance traffic.
	MaintenanceInterval time.Duration
	// Rand provides the node's jitter stream.
	Rand *sim.Rand
	// Metrics, when set, receives sensing-activity accounting (sample
	// counts for the energy model).
	Metrics *metrics.Collector
	// Trace, when set, records this node's events into the simulation's
	// event log.
	Trace *tracing.Recorder
}

// installed tracks one query running on this node.
type installed struct {
	n     *Node
	q     query.Query
	start sim.Time
	timer sim.Handle // per-query timer (independent mode only)
	// sampled and row are q.SampledAttrs() and q.RowAttrs() as sets.
	sampled, row field.AttrSet
	// rings holds per-attribute sample history for windowed aggregates.
	rings map[field.Attr]*query.WindowRing
}

// Fire drives the query's own clock (independent mode).
func (inst *installed) Fire() { inst.n.fireOne(inst) }

// sighting records when a neighbor was last known to hold data for a query.
type sighting struct {
	qid query.ID
	at  sim.Time
}

// pendBuf is the aggregation assembly buffer of one (query, epoch).
type pendBuf struct {
	qid    query.ID
	epochT sim.Time
	// own marks a buffer this node's own reading contributed to.
	own    bool
	states []query.AggState
}

// idRuns is a set of query IDs held as ascending, disjoint, non-adjacent
// runs. Tombstones only accumulate and the base station allocates IDs in
// sequence, so a long history of aborted queries collapses into one run per
// gap: the queries still alive, and those whose floods never reached this
// mote (SRT shadow, outage).
type idRuns []idRun

type idRun struct{ lo, hi query.ID }

func (s idRuns) has(id query.ID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].hi >= id })
	return i < len(s) && s[i].lo <= id
}

func (s *idRuns) add(id query.ID) {
	r := *s
	// The first run that reaches id-1 is the only one id can lie in or touch.
	i := sort.Search(len(r), func(i int) bool { return r[i].hi+1 >= id })
	if i < len(r) && r[i].lo <= id+1 {
		r[i].lo, r[i].hi = min(r[i].lo, id), max(r[i].hi, id)
	} else {
		r = slices.Insert(r, i, idRun{id, id})
	}
	if i+1 < len(r) && r[i].hi+1 == r[i+1].lo { // id closed the gap to the next run
		r[i].hi = r[i+1].hi
		r = slices.Delete(r, i+1, i+2)
	}
	*s = r
}

// Node is one simulated sensor mote. Its per-event state is flat: the
// installed queries are an ascending slice, and everything kept per neighbor
// is indexed by the neighbor's position in upper — the only neighbors a mote
// routes to, and so the only ones worth remembering anything about.
type Node struct {
	cfg   Config
	id    topology.NodeID
	level int
	// upper is Topo.UpperNeighbors(id), best link first; slots is 0..len-1,
	// the candidate list when no neighbor is under suspicion.
	upper []topology.NodeID
	slots []int

	// queries holds the installed queries in ascending ID order.
	queries []*installed

	// tick is the shared GCD clock (aligned mode).
	tick sim.Handle

	// knows[i] lists the queries upper[i] is known to hold data for, and
	// when that was last learned (piggybacked during propagation, overheard
	// from result traffic, or announced by a wake message).
	knows [][]sighting

	// pending accumulates partial aggregates per (query, epoch) until this
	// node's transmission slot.
	pending []pendBuf

	// aborted tombstones query IDs whose abortion this node has seen, so a
	// query flood arriving after (or racing) its abort flood cannot
	// reinstall the query and set off a query/abort ping-pong storm. Query
	// IDs are never reused, so tombstones are permanent.
	aborted idRuns
	// pruned records queries this node's SRT index excluded, so repeated
	// neighbor rebroadcasts are ignored and their aborts need no forward.
	pruned []query.ID

	asleep       bool
	lastUseful   sim.Time // last instant with own data or addressed traffic
	sawAddressed bool
	wakeCheck    sim.Handle
	maintTimer   sim.Handle

	// down models node failure: the radio is off and all activity is
	// suspended until SetDown(false).
	down bool
	// suspectAt[i] is when the last unicast to upper[i] went unacknowledged
	// (notSuspected otherwise); routing avoids such neighbors until they are
	// heard from again or the suspicion expires. suspects counts them, and
	// the radio listens to all traffic exactly while it is non-zero.
	suspectAt []sim.Time
	suspects  int

	// noAck and finished are onUndeliverable and onFinished as func values,
	// made once.
	noAck    func(*radio.Message, topology.NodeID)
	finished func(*radio.Message)
	// firing is onTick's scratch list.
	firing []*installed

	// What the mote sends and aggregates in is recycled: the result messages
	// and the beacon the medium has handed back, the state buffers of closed
	// pending entries, the slot records whose events have all fired.
	freeMsgs   []*ResultMsg
	freeBeacon *BeaconMsg
	freeStates [][]query.AggState
	freeSlots  []*slotWork
	// perQuery and classes are the scratch of one sendAggStates: nothing
	// re-enters between building them and route, which only schedules.
	perQuery []queryStates
	classes  []*ResultMsg
}

const notSuspected sim.Time = -1

// The node's recurring timers, scheduled as the node itself.
type (
	tickTimer   Node
	beaconTimer Node
	wakeTimer   Node
)

func (t *tickTimer) Fire()   { (*Node)(t).onTick() }
func (t *beaconTimer) Fire() { (*Node)(t).beacon() }
func (t *wakeTimer) Fire()   { (*Node)(t).onWakeCheck() }

// New creates the node and attaches it to the medium. The base station is
// not a Node; the network package handles node 0 itself.
func New(cfg Config) *Node {
	upper := cfg.Topo.UpperNeighbors(cfg.ID)
	n := &Node{
		cfg:       cfg,
		id:        cfg.ID,
		level:     cfg.Topo.Level(cfg.ID),
		upper:     upper,
		slots:     make([]int, len(upper)),
		knows:     make([][]sighting, len(upper)),
		suspectAt: make([]sim.Time, len(upper)),
	}
	for i := range upper {
		n.slots[i] = i
		n.suspectAt[i] = notSuspected
	}
	n.noAck, n.finished = n.onUndeliverable, n.onFinished
	cfg.Medium.SetHandler(n.id, n.onReceive)
	if cfg.MaintenanceInterval > 0 {
		// Stagger first beacons across the interval by node ID.
		offset := cfg.MaintenanceInterval * time.Duration(n.id) / time.Duration(cfg.Topo.Size())
		n.maintTimer = n.after(cfg.MaintenanceInterval+offset, (*beaconTimer)(n))
	}
	return n
}

// after schedules one of the node's own timers d from now.
func (n *Node) after(d time.Duration, a sim.Action) sim.Handle {
	return n.cfg.Engine.ScheduleAction(n.cfg.Engine.Now()+sim.Time(d), a)
}

// find returns the installed query with the given ID, or nil.
func (n *Node) find(qid query.ID) *installed {
	for _, inst := range n.queries {
		if inst.q.ID == qid {
			return inst
		}
	}
	return nil
}

// install adds a query, keeping queries ascending.
func (n *Node) install(q query.Query, start sim.Time) *installed {
	inst := &installed{
		n: n, q: q, start: start,
		sampled: field.SetOf(q.SampledAttrs()),
		row:     field.SetOf(q.RowAttrs()),
	}
	i := sort.Search(len(n.queries), func(i int) bool { return n.queries[i].q.ID > q.ID })
	n.queries = slices.Insert(n.queries, i, inst)
	return inst
}

// Queries returns the IDs of the queries currently installed, ascending.
func (n *Node) Queries() []query.ID {
	ids := make([]query.ID, len(n.queries))
	for i, inst := range n.queries {
		ids[i] = inst.q.ID
	}
	return ids
}

// Asleep reports whether the node is in sleep mode (tests).
func (n *Node) Asleep() bool { return n.asleep }

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down }

// SetDown fails or revives the node. While down the radio is off (nothing
// is heard or sent, unicasts to it go unacknowledged) and all sampling and
// timers are suppressed. A revived node keeps its installed queries but has
// missed any floods that happened meanwhile; the beacon anti-entropy digest
// repairs that within a maintenance interval.
func (n *Node) SetDown(down bool) {
	if down == n.down {
		return
	}
	n.down = down
	if down {
		n.trace(n.cfg.Engine.Now(), tracing.KindFail, "")
		n.cfg.Medium.SetHandler(n.id, nil)
		// Stale partial aggregates and window histories die with the outage.
		n.dropPending(func(*pendBuf) bool { return true })
		for _, inst := range n.queries {
			inst.rings = nil
		}
		return
	}
	n.trace(n.cfg.Engine.Now(), tracing.KindRevive, "")
	n.cfg.Medium.SetHandler(n.id, n.onReceive)
	n.asleep = false
	n.lastUseful = n.cfg.Engine.Now()
	if n.cfg.Policy.AlignedEpochs {
		n.rescheduleTick()
	}
}

// --- Receive path --------------------------------------------------------

func (n *Node) onReceive(d radio.Delivery) {
	if n.down {
		return // radio off; defensive — the handler is detached while down
	}
	// Hearing anything from a neighbor clears its death suspicion.
	if n.suspects > 0 {
		if slot := n.upperSlot(d.Msg.Src); slot >= 0 && n.suspectAt[slot] != notSuspected {
			n.suspectAt[slot] = notSuspected
			n.suspects--
			n.cfg.Medium.SetListening(n.id, n.suspects > 0)
		}
	}
	switch msg := d.Msg.Payload.(type) {
	case *QueryMsg:
		n.onQuery(d.Msg.Src, msg)
	case *AbortMsg:
		n.onAbort(msg)
	case *WakeMsg:
		n.learn(d.Msg.Src, msg.QIDs)
	case *BeaconMsg:
		n.onBeacon(msg)
	case *ResultMsg:
		n.onResult(d, msg)
	}
}

// onBeacon runs the anti-entropy repair over the sender's installed-query
// digest: re-send a missing query's propagation message, or the abort of a
// query the sender should have dropped. One repair per beacon bounds the
// traffic.
func (n *Node) onBeacon(bm *BeaconMsg) {
	// The sender still runs a query we know is aborted: repair with the
	// abort flood (tombstoned here, so re-sending is loop-free).
	for _, qid := range bm.QIDs {
		if n.aborted.has(qid) {
			n.cfg.Medium.Send(&radio.Message{
				Kind:    radio.KindAbort,
				Src:     n.id,
				Bytes:   AbortMsgBytes(),
				Payload: &AbortMsg{QID: qid},
			})
			return
		}
	}
	// The sender is missing a query we run: re-send its propagation
	// message (the receiver's dup/SRT logic applies as usual). Node-id
	// based queries are skipped under SRT — the sender may have pruned
	// them deliberately, which a digest cannot distinguish from loss.
	// Both lists ascend, so one pass over the digest finds the gaps.
	digest := bm.QIDs
	for _, inst := range n.queries {
		for len(digest) > 0 && digest[0] < inst.q.ID {
			digest = digest[1:]
		}
		if len(digest) > 0 && digest[0] == inst.q.ID {
			continue
		}
		if n.cfg.Policy.SRT {
			if _, nodeIDBased := inst.q.PredFor(field.AttrNodeID); nodeIDBased {
				continue
			}
		}
		n.cfg.Medium.Send(&radio.Message{
			Kind:    radio.KindQuery,
			Src:     n.id,
			Bytes:   QueryMsgBytes(inst.q),
			Payload: &QueryMsg{Q: inst.q, Start: inst.start, SenderHasData: n.matchesNow(inst.q)},
		})
		return
	}
}

// onQuery installs a newly flooded query and rebroadcasts it once,
// piggybacking whether this node currently has data for it (§3.2.2 query
// propagation phase). Control traffic is processed even while asleep
// (low-power listening wakes the radio for long-preamble floods).
func (n *Node) onQuery(src topology.NodeID, qm *QueryMsg) {
	if n.aborted.has(qm.Q.ID) || slices.Contains(n.pruned, qm.Q.ID) {
		return
	}
	if qm.SenderHasData {
		n.learn(src, []query.ID{qm.Q.ID})
	}
	if n.find(qm.Q.ID) != nil {
		return
	}
	// SRT pruning: a node-id-based query whose ID range misses this node's
	// entire routing-tree subtree has no answer node below here; neither
	// install nor forward it. Answer nodes still hear the query from their
	// own tree ancestors, which all overlap the range.
	if n.cfg.Policy.SRT && n.srtPrunes(qm.Q) {
		n.pruned = append(n.pruned, qm.Q.ID)
		return
	}
	inst := n.install(qm.Q, qm.Start)
	n.scheduleQuery(inst)
	n.trace(n.cfg.Engine.Now(), tracing.KindInstall, "q%d start=%v", qm.Q.ID, qm.Start)

	hasData := n.matchesNow(qm.Q)
	fwd := &QueryMsg{Q: qm.Q, Start: qm.Start, SenderHasData: hasData, Hops: qm.Hops + 1}
	n.cfg.Medium.Send(&radio.Message{
		Kind:    radio.KindQuery,
		Src:     n.id,
		Bytes:   QueryMsgBytes(qm.Q),
		Payload: fwd,
	})
}

// srtPrunes reports whether the query's node-id predicate excludes this
// node's entire subtree.
func (n *Node) srtPrunes(q query.Query) bool {
	p, ok := q.PredFor(field.AttrNodeID)
	if !ok {
		return false
	}
	lo, hi := n.cfg.Topo.SubtreeInterval(n.id)
	return p.Max < float64(lo) || p.Min > float64(hi)
}

func (n *Node) onAbort(am *AbortMsg) {
	if n.aborted.has(am.QID) {
		return
	}
	// Tombstone first: even a node that never saw the query flood must
	// rebroadcast the abort once (the abort flood may be ahead of the query
	// flood) and must refuse a late installation.
	n.aborted.add(am.QID)
	if i := slices.Index(n.pruned, am.QID); i >= 0 {
		// The query never entered this subtree, so no one below needs the
		// abort either; tombstone silently.
		n.pruned = slices.Delete(n.pruned, i, i+1)
		return
	}
	if inst := n.find(am.QID); inst != nil {
		i := slices.Index(n.queries, inst)
		n.queries = slices.Delete(n.queries, i, i+1)
		if inst.timer.Pending() {
			inst.timer.Cancel()
		}
		n.trace(n.cfg.Engine.Now(), tracing.KindAbort, "q%d", am.QID)
	}
	n.dropPending(func(b *pendBuf) bool { return b.qid == am.QID })
	if len(n.queries) == 0 && n.tick.Pending() {
		n.tick.Cancel()
	}
	n.cfg.Medium.Send(&radio.Message{
		Kind:    radio.KindAbort,
		Src:     n.id,
		Bytes:   AbortMsgBytes(),
		Payload: am,
	})
}

// onResult handles result traffic: addressed messages are relayed (or
// merged into this node's partial aggregates); overheard messages refresh
// neighbor knowledge — the broadcast nature of the channel at work. Only a
// lower neighbor of the sender learns anything from overhearing, so that is
// who a sender declares (transmit); a suspecting node listens to everything.
func (n *Node) onResult(d radio.Delivery, msg *ResultMsg) {
	if !d.Addressed {
		if !n.asleep && n.cfg.Policy.QueryAwareDAG {
			// A neighbor whose own reading contributed to this message has
			// data to share for those queries; pure relaying teaches us
			// nothing about the neighbor's data.
			n.learn(d.Msg.Src, msg.OwnQIDs)
		}
		return
	}
	// Addressed traffic marks this node as an active relay and wakes it.
	n.sawAddressed = true
	if n.asleep {
		n.resume()
	}
	n.learn(d.Msg.Src, msg.OwnQIDs)

	mine := msg.QueriesFor(n.id)
	if len(mine) == 0 {
		return
	}
	if msg.IsAggregation() {
		n.relayAggregation(msg, mine)
		return
	}
	n.relayAcquisition(msg, mine)
}

// relayAcquisition forwards an origin row toward the base station, trimmed
// to the attributes its remaining queries need.
func (n *Node) relayAcquisition(msg *ResultMsg, mine []query.ID) {
	out := n.newMsg(msg.EpochT)
	out.QIDs = append(out.QIDs, mine...)
	out.Origin, out.Row = msg.Origin, n.trimRow(msg.Row, mine)
	n.route(out)
}

// relayAggregation merges incoming partial states into this node's pending
// buffers when its own slot for the epoch is still ahead; otherwise (late
// arrival, or epochs this node is not running) the states are forwarded
// unmerged — less aggregation, same answer at the base station.
func (n *Node) relayAggregation(msg *ResultMsg, mine []query.ID) {
	late := n.perQuery[:0]
	for _, qid := range mine {
		inst := n.find(qid)
		if inst != nil && n.slotTime(msg.EpochT) > n.cfg.Engine.Now() && n.firesAt(inst, msg.EpochT) {
			b := n.pendingFor(qid, msg.EpochT)
			for _, st := range msg.States {
				b.states = query.FoldState(b.states, st)
			}
			continue
		}
		late = append(late, queryStates{qid: qid, states: msg.States})
	}
	n.perQuery = late
	if len(late) > 0 {
		n.sendAggStates(msg.EpochT, late)
	}
}

// pendingFor returns the assembly buffer of (qid, epochT), opening it if
// need be. A buffer is read once, in its epoch's slot, which is over (jitter
// included) by slotTime(epochT)+SlotTime; one still here after that was
// opened for an epoch this node slept through and would sit for ever, so
// opening a buffer is also when those are dropped.
func (n *Node) pendingFor(qid query.ID, epochT sim.Time) *pendBuf {
	for i := range n.pending {
		if b := &n.pending[i]; b.qid == qid && b.epochT == epochT {
			return b
		}
	}
	stale := n.cfg.Engine.Now() - sim.Time(SlotTime)
	n.dropPending(func(b *pendBuf) bool { return n.slotTime(b.epochT) < stale })
	states, _ := pop(&n.freeStates)
	n.pending = append(n.pending, pendBuf{qid: qid, epochT: epochT, states: states})
	return &n.pending[len(n.pending)-1]
}

// pop takes the last entry off a free list, if there is one.
func pop[T any](free *[]T) (v T, ok bool) {
	if k := len(*free); k > 0 {
		v, *free = (*free)[k-1], (*free)[:k-1]
		return v, true
	}
	return v, false
}

// dropPending closes the assembly buffers drop selects; their state buffers
// go back on the free list.
func (n *Node) dropPending(drop func(*pendBuf) bool) {
	kept := n.pending[:0]
	for i := range n.pending {
		if b := &n.pending[i]; drop(b) {
			n.freeStates = append(n.freeStates, b.states[:0])
		} else {
			kept = append(kept, *b)
		}
	}
	clear(n.pending[len(kept):])
	n.pending = kept
}

// --- Epoch scheduling -----------------------------------------------------

// scheduleQuery arms the timers for a fresh installation.
func (n *Node) scheduleQuery(inst *installed) {
	if n.cfg.Policy.AlignedEpochs {
		n.rescheduleTick()
		return
	}
	// Independent mode: a per-query clock with the query's own phase. A
	// late (re)installation — e.g. the anti-entropy repair after an outage
	// — catches up to the next firing on the original phase.
	at := inst.start
	if now := n.cfg.Engine.Now(); at <= now {
		missed := (now-at)/sim.Time(inst.q.Epoch) + 1
		at += missed * sim.Time(inst.q.Epoch)
	}
	inst.timer = n.cfg.Engine.ScheduleAction(at, inst)
}

// fireOne drives one query in independent mode.
func (n *Node) fireOne(inst *installed) {
	if n.find(inst.q.ID) == nil {
		return
	}
	t := n.cfg.Engine.Now()
	inst.timer = n.after(inst.q.Epoch, inst)
	if n.asleep || n.down {
		return
	}
	n.processFiring(t, []*installed{inst})
}

// gcdEpoch returns the GCD clock period over installed queries.
func (n *Node) gcdEpoch() time.Duration {
	var g time.Duration
	for _, inst := range n.queries {
		g = query.EpochGCD(g, inst.q.Epoch)
	}
	return g
}

// rescheduleTick (re)arms the shared clock at the next GCD grid point
// (§3.2.1: "we (re)set the node's clock to fire at the GCD of the epoch
// durations of all the queries").
func (n *Node) rescheduleTick() {
	if n.tick.Pending() {
		n.tick.Cancel()
	}
	g := n.gcdEpoch()
	if g <= 0 {
		return
	}
	now := n.cfg.Engine.Now()
	next := (now/g + 1) * g
	n.tick = n.cfg.Engine.ScheduleAction(next, (*tickTimer)(n))
}

// onTick fires every GCD period; queries whose epoch divides the current
// instant sample together ("a shared data acquisition is conducted for all
// such q_i").
func (n *Node) onTick() {
	t := n.cfg.Engine.Now()
	n.rescheduleTick()
	if n.asleep || n.down {
		return
	}
	// Query order matters: without SharedMessages each firing query emits
	// its own message, and emission order feeds the medium's contention
	// model. queries ascends by ID.
	firing := n.firing[:0]
	for _, inst := range n.queries {
		if n.firesAt(inst, t) {
			firing = append(firing, inst)
		}
	}
	n.firing = firing
	if len(firing) == 0 {
		return
	}
	n.processFiring(t, firing)
}

// firesAt reports whether a query produces an epoch at time t.
func (n *Node) firesAt(inst *installed, t sim.Time) bool {
	if t < inst.start {
		return false
	}
	if n.cfg.Policy.AlignedEpochs {
		return t%inst.q.Epoch == 0
	}
	return (t-inst.start)%inst.q.Epoch == 0
}

// slotWork is what one firing leaves to do at the node's transmission slot:
// the shared sample and the firing queries, each with the kind of result
// traffic it owes. Acquisition rows, windowed rows and partial aggregates
// go out as three events at the slot instant, in that order; all three are
// this one record, which goes back on the mote's free list when the last of
// them has fired.
type slotWork struct {
	n      *Node
	t      sim.Time
	sample field.Values
	items  []slotItem
	// events counts the slot events still to fire.
	events int
}

type slotItem struct {
	inst *installed
	owes slotKind
}

type slotKind uint8

const (
	owesAcquisition slotKind = iota + 1 // matched acquisition query
	owesWindow                          // windowed query at a slide boundary
	owesAggregate                       // aggregation query (matched or not)
)

type (
	acqSlot slotWork
	winSlot slotWork
	aggSlot slotWork
)

func (w *acqSlot) Fire() { w.n.sendAcquisition((*slotWork)(w)); (*slotWork)(w).fired() }
func (w *winSlot) Fire() { w.n.sendWindowed((*slotWork)(w)); (*slotWork)(w).fired() }
func (w *aggSlot) Fire() { w.n.finalizeAggregation((*slotWork)(w)); (*slotWork)(w).fired() }

func (w *slotWork) fired() {
	if w.events--; w.events == 0 {
		w.n.freeSlots = append(w.n.freeSlots, w)
	}
}

// trace writes one event into the event log, if there is one.
func (n *Node) trace(at sim.Time, kind, format string, args ...any) {
	n.cfg.Trace.Eventf(int64(at), int(n.id), kind, format, args...)
}

// processFiring samples once for all firing queries and generates result
// traffic at this node's transmission slot.
func (n *Node) processFiring(t sim.Time, firing []*installed) {
	if n.cfg.Trace != nil {
		n.trace(t, tracing.KindFire, "%d queries", len(firing))
	}
	// Shared data acquisition: one sample covers every firing query.
	var need field.AttrSet
	for _, inst := range firing {
		need |= inst.sampled
	}
	w, ok := pop(&n.freeSlots)
	if !ok {
		w = &slotWork{n: n}
	}
	w.t, w.sample, w.items = t, field.Sample(n.cfg.Source, n.id, need, t), w.items[:0]
	sample := &w.sample
	if n.cfg.Metrics != nil {
		n.cfg.Metrics.CountSamples(n.id, need.Len())
	}

	var owed [owesAggregate + 1]bool
	hadOwnData := false
	for _, inst := range firing {
		matched := inst.q.MatchesValues(sample)
		if inst.q.IsWindowed() {
			// The sample history advances every epoch regardless of the
			// predicate; the node reports at slide boundaries when its
			// current reading qualifies.
			if inst.rings == nil {
				inst.rings = make(map[field.Attr]*query.WindowRing, len(inst.q.Wins))
			}
			for _, win := range inst.q.Wins {
				r, ok := inst.rings[win.Attr]
				if !ok {
					r = query.NewWindowRing(win.Window)
					inst.rings[win.Attr] = r
				}
				v, _ := sample.Get(win.Attr)
				r.Push(v)
			}
			if matched && n.reportsAt(inst, t) {
				hadOwnData = true
				w.items = append(w.items, slotItem{inst, owesWindow})
				owed[owesWindow] = true
			}
			continue
		}
		if inst.q.IsAggregation() {
			w.items = append(w.items, slotItem{inst, owesAggregate})
			owed[owesAggregate] = true
			if matched {
				hadOwnData = true
				var group int64
				if inst.q.GroupBy != nil {
					gv, _ := sample.Get(inst.q.GroupBy.Attr)
					group = inst.q.GroupBy.Key(gv)
				}
				b := n.pendingFor(inst.q.ID, t)
				b.own = true
				for _, a := range inst.q.Aggs {
					st := query.NewGroupedAggState(a, group)
					v, _ := sample.Get(a.Attr)
					st.Add(v)
					b.states = query.FoldState(b.states, st)
				}
			}
			continue
		}
		if matched {
			hadOwnData = true
			w.items = append(w.items, slotItem{inst, owesAcquisition})
			owed[owesAcquisition] = true
		}
	}

	slot := n.slotTime(t) + sim.Time(n.jitter())
	w.events = 0
	if owed[owesAcquisition] {
		w.events++
		n.cfg.Engine.ScheduleAction(slot, (*acqSlot)(w))
	}
	if owed[owesWindow] {
		w.events++
		n.cfg.Engine.ScheduleAction(slot, (*winSlot)(w))
	}
	if owed[owesAggregate] {
		w.events++
		n.cfg.Engine.ScheduleAction(slot, (*aggSlot)(w))
	}
	if w.events == 0 {
		n.freeSlots = append(n.freeSlots, w)
	}

	n.updateSleepState(hadOwnData)
}

// reportsAt reports whether a windowed query emits a result at firing t:
// every Slide epochs on the query's schedule.
func (n *Node) reportsAt(inst *installed, t sim.Time) bool {
	re := sim.Time(inst.q.ReportEvery())
	if re <= 0 {
		return false
	}
	if n.cfg.Policy.AlignedEpochs {
		return t%re == 0
	}
	return (t-inst.start)%re == 0
}

// sendWindowed emits this node's windowed-aggregate rows. Each windowed
// query sends its own message: window values are query-specific derivations,
// so cross-query packing would put conflicting values under one attribute.
func (n *Node) sendWindowed(w *slotWork) {
	for _, it := range w.items {
		if it.owes != owesWindow {
			continue
		}
		inst := it.inst
		var row field.Values
		for _, win := range inst.q.Wins {
			if r, ok := inst.rings[win.Attr]; ok {
				if v, okv := r.Aggregate(win.Op); okv {
					row.Set(win.Attr, v)
				}
			}
		}
		if row.Len() == 0 {
			continue
		}
		n.route(n.ownRow(w.t, row, inst.q.ID))
	}
}

// slotTime staggers transmissions by level: deeper nodes send earlier so
// parents can merge partial aggregates before their own slot.
func (n *Node) slotTime(epochT sim.Time) sim.Time {
	depth := n.cfg.Topo.MaxDepth()
	return epochT + sim.Time(time.Duration(depth-n.level)*SlotTime)
}

// jitter spreads same-slot transmissions across the first half of the slot
// window, a stand-in for CSMA's random access. The other half of the slot
// leaves room for the airtime and relay hops before the next level's slot.
func (n *Node) jitter() time.Duration {
	return time.Duration(n.cfg.Rand.Float64() * float64(SlotTime) * 0.5)
}

// sendAcquisition emits this node's own readings for the matched
// acquisition queries: one packed message under SharedMessages, one message
// per query otherwise (TinyDB behaviour).
func (n *Node) sendAcquisition(w *slotWork) {
	if n.cfg.Policy.SharedMessages {
		msg := n.newMsg(w.t)
		var attrs field.AttrSet
		for _, it := range w.items {
			if it.owes == owesAcquisition {
				msg.QIDs = append(msg.QIDs, it.inst.q.ID)
				attrs |= field.SetOf(it.inst.q.Attrs)
			}
		}
		msg.OwnQIDs = append(msg.OwnQIDs, msg.QIDs...)
		msg.Origin, msg.Row = n.id, w.sample.Only(attrs)
		n.route(msg)
		return
	}
	for _, it := range w.items {
		if it.owes == owesAcquisition {
			n.route(n.ownRow(w.t, w.sample.Only(field.SetOf(it.inst.q.Attrs)), it.inst.q.ID))
		}
	}
}

// ownRow builds the message carrying this node's own row for one query.
func (n *Node) ownRow(t sim.Time, row field.Values, qid query.ID) *ResultMsg {
	msg := n.newMsg(t)
	msg.QIDs, msg.OwnQIDs = append(msg.QIDs, qid), append(msg.OwnQIDs, qid)
	msg.Origin, msg.Row = n.id, row
	return msg
}

// queryStates is the partial-state list of one query on its way out.
type queryStates struct {
	qid    query.ID
	states []query.AggState
	// own marks states this node's own reading contributed to.
	own bool
}

// finalizeAggregation flushes the pending partial aggregates of the firing
// queries at this node's slot: own reading and child contributions merged
// into one partial state record per (query, aggregate, bucket). Once the
// states are in messages their buffers go back on the free list.
func (n *Node) finalizeAggregation(w *slotWork) {
	out := n.perQuery[:0]
	for _, it := range w.items {
		if it.owes != owesAggregate {
			continue
		}
		for i := range n.pending {
			if b := n.pending[i]; b.qid == it.inst.q.ID && b.epochT == w.t {
				out = append(out, queryStates{qid: b.qid, states: b.states, own: b.own})
				n.pending = slices.Delete(n.pending, i, i+1)
				break
			}
		}
	}
	n.perQuery = out
	if len(out) > 0 {
		n.sendAggStates(w.t, out)
	}
	for _, pq := range out {
		n.freeStates = append(n.freeStates, pq.states[:0])
	}
}

// sendAggStates emits partial-aggregate messages for the given queries
// (ascending by ID). Under SharedMessages, queries whose entire partial
// states are identical share one message (§3.2.2: "one data message can be
// packed to share among all of the queries whose partial aggregation value
// are the same"), which carries the states once; queries with different
// partials — e.g. a node that aggregated extra children for one of them, as
// node B does in the Figure 2 walk-through — go in separate messages. Without
// SharedMessages every query gets its own message.
func (n *Node) sendAggStates(t sim.Time, perQuery []queryStates) {
	classes := n.classes[:0]
	for _, pq := range perQuery {
		var c *ResultMsg
		if n.cfg.Policy.SharedMessages {
			for _, m := range classes {
				if stateListsEqual(m.States, pq.states) {
					c = m
					break
				}
			}
		}
		if c == nil {
			c = n.newMsg(t)
			c.States = append(c.States, pq.states...)
			classes = append(classes, c)
		}
		c.QIDs = append(c.QIDs, pq.qid)
		if pq.own {
			c.OwnQIDs = append(c.OwnQIDs, pq.qid)
		}
	}
	n.classes = classes
	for _, c := range classes {
		n.route(c)
	}
}

// stateListsEqual reports whether two partial-state lists are identical
// (same aggregates and buckets, same partial values), i.e. packable into one
// message. A list holds one state per (aggregate, bucket).
func stateListsEqual(a, b []query.AggState) bool {
	if len(a) != len(b) {
		return false
	}
	for _, sa := range a {
		if !slices.ContainsFunc(b, sa.SameValue) {
			return false
		}
	}
	return true
}

// --- Routing ---------------------------------------------------------------

// route picks the next hop(s) for a result message and transmits it. Under
// FixedTree everything unicasts to the TinyDB tree parent; under
// QueryAwareDAG the node prefers upper-level neighbors that hold data for
// the same queries, splitting across parents with one multicast when no
// single neighbor serves every query (§3.2.2 result collection phase).
func (n *Node) route(msg *ResultMsg) {
	live := n.liveUpper()
	if len(live) == 0 {
		return // cannot happen in a connected topology
	}
	// Without QueryAwareDAG: TinyDB parent selection by link quality; a
	// suspected-dead parent fails over to the next-best upper neighbor.
	if !n.cfg.Policy.QueryAwareDAG || len(live) == 1 || len(msg.QIDs) == 0 {
		n.unicast(msg, live[0])
		return
	}

	// Score candidates by how many of the message's queries they have data
	// for; live is ordered best-link-first, so ties favor stable links. An
	// observation counts for KnowledgeTTL epochs of its query.
	now := n.cfg.Engine.Now()
	var room [16]sim.Time
	ttl := room[:0]
	for _, qid := range msg.QIDs {
		epoch := query.MinEpoch
		if inst := n.find(qid); inst != nil {
			epoch = inst.q.Epoch
		}
		ttl = append(ttl, sim.Time(KnowledgeTTL)*sim.Time(epoch))
	}
	covered := func(slot, i int) bool {
		for _, s := range n.knows[slot] {
			if s.qid == msg.QIDs[i] {
				return now-s.at <= ttl[i]
			}
		}
		return false
	}
	best := live[0]
	bestScore := 0
	for _, slot := range live {
		score := 0
		for i := range msg.QIDs {
			if covered(slot, i) {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = slot, score
		}
	}
	if bestScore == 0 || bestScore == len(msg.QIDs) {
		n.unicast(msg, best)
		return
	}

	// Partial coverage: greedily assign each query to a knowledgeable
	// parent; queries nobody has data for ride with the primary parent.
	// Emission order affects the radio medium's contention, so the parents
	// are kept in ascending node order.
	shares := msg.shares[:0]
	for i, qid := range msg.QIDs {
		slot := best
		if !covered(best, i) {
			for _, cand := range live {
				if covered(cand, i) {
					slot = cand
					break
				}
			}
		}
		dest := n.upper[slot]
		at := sort.Search(len(shares), func(j int) bool { return shares[j].Dest >= dest })
		if at == len(shares) || shares[at].Dest != dest {
			// The entry past the end may be a recycled one: rotate it into
			// place for its id buffer.
			shares = slices.Grow(shares, 1)[:len(shares)+1]
			spare := shares[len(shares)-1].QIDs[:0]
			copy(shares[at+1:], shares[at:])
			shares[at] = Subset{Dest: dest, QIDs: spare}
		}
		shares[at].QIDs = append(shares[at].QIDs, qid)
	}
	msg.shares = shares
	if len(shares) == 1 {
		n.unicast(msg, best)
		return
	}
	if !n.cfg.Policy.Multicast {
		// Without multicast: one unicast per parent, each with its subset;
		// msg itself stays off the air.
		for _, sh := range shares {
			n.unicast(n.subsetMsg(msg, sh.QIDs), n.upperSlot(sh.Dest))
		}
		n.recycle(msg)
		return
	}
	// One multicast with a per-destination query mapping in the header.
	msg.dests = msg.dests[:0]
	for _, sh := range shares {
		msg.dests = append(msg.dests, sh.Dest)
	}
	msg.Subsets = shares
	n.transmit(msg, msg.dests)
}

// subsetMsg projects a result message onto a non-empty subset of its queries.
func (n *Node) subsetMsg(msg *ResultMsg, qids []query.ID) *ResultMsg {
	out := n.newMsg(msg.EpochT)
	out.QIDs = append(out.QIDs, qids...)
	out.Origin, out.Reroutes = msg.Origin, msg.Reroutes
	for _, id := range msg.OwnQIDs {
		if slices.Contains(qids, id) {
			out.OwnQIDs = append(out.OwnQIDs, id)
		}
	}
	if msg.IsAggregation() {
		out.States = append(out.States, msg.States...)
	} else {
		out.Row = n.trimRow(msg.Row, qids)
	}
	return out
}

// trimRow reduces a row to the attributes the given queries request; the
// row is kept whole if any of them is unknown locally.
func (n *Node) trimRow(row field.Values, qids []query.ID) field.Values {
	var need field.AttrSet
	for _, qid := range qids {
		inst := n.find(qid)
		if inst == nil {
			return row
		}
		need |= inst.row
	}
	return row.Only(need)
}

// liveUpper returns the slots of the upper-level neighbors not currently
// suspected dead (best link first); if every candidate is suspected,
// suspicion is ignored — a stale blacklist must not partition the network.
func (n *Node) liveUpper() []int {
	if n.suspects == 0 {
		return n.slots
	}
	now := n.cfg.Engine.Now()
	live := make([]int, 0, len(n.upper))
	for slot, at := range n.suspectAt {
		if at != notSuspected && now-at < sim.Time(DeadSuspicionTTL) {
			continue
		}
		live = append(live, slot)
	}
	if len(live) == 0 {
		return n.slots
	}
	return live
}

// upperSlot returns nb's index in upper, or -1 if nb is not an upper-level
// neighbor.
func (n *Node) upperSlot(nb topology.NodeID) int {
	if n.cfg.Topo.Level(nb) != n.level-1 {
		return -1
	}
	for slot, id := range n.upper {
		if id == nb {
			return slot
		}
	}
	return -1
}

// unicast transmits msg to one upper neighbor. The destination list is a
// slice of the topology's own neighbor table, which nobody writes.
func (n *Node) unicast(msg *ResultMsg, slot int) {
	n.transmit(msg, n.upper[slot:slot+1:slot+1])
}

// transmit puts a result message on the air. Its overhearers are the lower
// neighbors when it carries own readings under QueryAwareDAG: the only
// receivers whose learn can find the sender among their upper neighbors.
func (n *Node) transmit(msg *ResultMsg, dests []topology.NodeID) {
	var overhear []topology.NodeID
	if n.cfg.Policy.QueryAwareDAG && len(msg.OwnQIDs) > 0 {
		overhear = n.cfg.Topo.LowerNeighbors(n.id)
	}
	msg.pkt = radio.Message{
		Kind:          radio.KindResult,
		Src:           n.id,
		Dests:         dests,
		Overhear:      overhear,
		Bytes:         resultMsgBytes(msg),
		Payload:       msg,
		Undeliverable: n.noAck,
		Finished:      n.finished,
	}
	n.cfg.Medium.Send(&msg.pkt)
}

// newMsg returns an empty result message for epochT: one the medium handed
// back, its buffers kept, when there is one. Every result message this mote
// sends is built here.
func (n *Node) newMsg(epochT sim.Time) *ResultMsg {
	m, ok := pop(&n.freeMsgs)
	if !ok {
		return &ResultMsg{EpochT: epochT}
	}
	*m = ResultMsg{EpochT: epochT, QIDs: m.QIDs[:0], OwnQIDs: m.OwnQIDs[:0], States: m.States[:0], shares: m.shares, dests: m.dests}
	return m
}

// recycle is where a result message ends: delivered, or never sent.
func (n *Node) recycle(msg *ResultMsg) { n.freeMsgs = append(n.freeMsgs, msg) }

// onFinished takes back what the medium is done with (radio.Message.Finished).
func (n *Node) onFinished(pkt *radio.Message) {
	switch m := pkt.Payload.(type) {
	case *ResultMsg:
		n.recycle(m)
	case *BeaconMsg:
		n.freeBeacon = m
	}
}

// onUndeliverable is the link-layer "no ACK" signal: the destination's
// radio was off when the transmission completed. The sender blacklists the
// neighbor and reroutes the affected queries through another parent.
func (n *Node) onUndeliverable(pkt *radio.Message, dest topology.NodeID) {
	if n.down {
		return
	}
	msg := pkt.Payload.(*ResultMsg)
	if slot := n.upperSlot(dest); slot >= 0 {
		if n.suspectAt[slot] == notSuspected {
			n.suspects++
			n.cfg.Medium.SetListening(n.id, true)
		}
		n.suspectAt[slot] = n.cfg.Engine.Now()
	}
	if msg.Reroutes >= MaxReroutes {
		// Reroute budget exhausted: every upper path tried and failed (a
		// permanently dead parent region). The result is abandoned — traced
		// so completeness loss is attributable — rather than looping.
		n.trace(n.cfg.Engine.Now(), tracing.KindDrop,
			"q%v epoch=%v reroutes=%d dest=%d", msg.QIDs, time.Duration(msg.EpochT), msg.Reroutes, dest)
		return
	}
	qids := msg.QueriesFor(dest)
	if len(qids) == 0 {
		return
	}
	sub := n.subsetMsg(msg, qids)
	sub.Reroutes++
	n.route(sub)
}

// --- Sleep mode -------------------------------------------------------------

// updateSleepState implements §3.2.2's sleep rule: a node whose data
// satisfies no query and which is relaying nothing dozes off once it has
// been idle for SleepAfterIdle.
func (n *Node) updateSleepState(hadOwnData bool) {
	if !n.cfg.Policy.Sleep || !n.cfg.Policy.QueryAwareDAG {
		return
	}
	now := n.cfg.Engine.Now()
	if hadOwnData || n.sawAddressed {
		n.lastUseful = now
	}
	n.sawAddressed = false
	if !n.asleep && now-n.lastUseful >= sim.Time(SleepAfterIdle) {
		n.asleep = true
		n.wakeCheck = n.after(SleepCheck, (*wakeTimer)(n))
		n.trace(now, tracing.KindSleep, "idle since %v", time.Duration(n.lastUseful))
	}
}

// onWakeCheck re-evaluates a sleeping node's readings: if they now satisfy
// a query, the node wakes and broadcasts a one-hop wake message so lower
// neighbors reconsider it as a relay (§3.2.2); otherwise it keeps sleeping.
func (n *Node) onWakeCheck() {
	if !n.asleep {
		return
	}
	var matched []query.ID
	for _, inst := range n.queries {
		if n.matchesNow(inst.q) {
			matched = append(matched, inst.q.ID)
		}
	}
	if len(matched) == 0 {
		n.wakeCheck = n.after(SleepCheck, (*wakeTimer)(n))
		return
	}
	n.resume()
	n.cfg.Medium.Send(&radio.Message{
		Kind:    radio.KindWake,
		Src:     n.id,
		Bytes:   wakeMsgBytes(len(matched)),
		Payload: &WakeMsg{QIDs: matched},
	})
}

// resume leaves sleep mode; when waking because data reappeared the caller
// sends the wake broadcast.
func (n *Node) resume() {
	if n.asleep {
		n.trace(n.cfg.Engine.Now(), tracing.KindWake, "")
	}
	n.asleep = false
	n.lastUseful = n.cfg.Engine.Now()
	if n.wakeCheck.Pending() {
		n.wakeCheck.Cancel()
	}
}

// matchesNow evaluates a query's predicates against this node's current
// readings.
func (n *Node) matchesNow(q query.Query) bool {
	vals := field.Sample(n.cfg.Source, n.id, field.SetOf(q.PredAttrs()), n.cfg.Engine.Now())
	return q.MatchesValues(&vals)
}

// --- Maintenance -------------------------------------------------------------

// beacon emits the periodic network-maintenance message; sleeping nodes
// skip it (part of the §3.2.2 energy saving).
func (n *Node) beacon() {
	n.maintTimer = n.after(n.cfg.MaintenanceInterval, (*beaconTimer)(n))
	if n.asleep || n.down {
		return
	}
	bm := n.freeBeacon
	n.freeBeacon = nil
	if bm == nil { // the first beacon, or the last one is still on the air
		bm = &BeaconMsg{}
	}
	bm.QIDs = bm.QIDs[:0]
	for _, inst := range n.queries {
		bm.QIDs = append(bm.QIDs, inst.q.ID)
	}
	bm.pkt = radio.Message{
		Kind:     radio.KindBeacon,
		Src:      n.id,
		Bytes:    beaconMsgBytes(len(bm.QIDs)),
		Payload:  bm,
		Finished: n.finished,
	}
	n.cfg.Medium.Send(&bm.pkt)
}

// --- Knowledge --------------------------------------------------------------

// learn records that neighbor nb holds data for the given queries as of now.
// Only upper-level neighbors are routing candidates, so what the others hold
// is never asked and not kept.
func (n *Node) learn(nb topology.NodeID, qids []query.ID) {
	if len(qids) == 0 {
		return
	}
	slot := n.upperSlot(nb)
	if slot < 0 {
		return
	}
	now := n.cfg.Engine.Now()
	known := n.knows[slot]
next:
	for _, qid := range qids {
		for i := range known {
			if known[i].qid == qid {
				known[i].at = now
				continue next
			}
		}
		// A first sighting is when the list is tidied: a sighting of a query
		// that cannot be installed here any more (aborted, or pruned by SRT)
		// scores in route for KnowledgeTTL·MinEpoch and never again.
		known = slices.DeleteFunc(known, func(s sighting) bool {
			return now-s.at > sim.Time(KnowledgeTTL)*sim.Time(query.MinEpoch) &&
				(n.aborted.has(s.qid) || slices.Contains(n.pruned, s.qid))
		})
		known = append(known, sighting{qid, now})
	}
	n.knows[slot] = known
}
