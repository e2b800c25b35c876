package network

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// Config parametrizes a simulation run.
type Config struct {
	// Topo is the deployment; required.
	Topo *topology.Topology
	// Scheme selects the optimization tiers; required.
	Scheme Scheme
	// Seed drives every random choice (field, jitter, collisions).
	Seed int64
	// Alpha is the tier-1 termination parameter (core.DefaultAlpha if 0).
	Alpha float64
	// Source overrides the sensed field (defaults to a correlated
	// field.Field seeded from Seed).
	Source field.Source
	// Radio tunes the medium; zero values take radio defaults.
	Radio radio.Config
	// MaintenanceInterval is the network-maintenance beacon period; zero
	// means DefaultMaintenanceInterval, negative disables maintenance.
	MaintenanceInterval time.Duration
	// PolicyOverride replaces the scheme's tier-2 policy (ablations).
	PolicyOverride *node.Policy
	// DiscardResults disables user-result retention for long metric-only
	// runs.
	DiscardResults bool
	// Failures injects node outages (zero value disables them).
	Failures FailureConfig
	// Trace, when set, records the run's event log: every transmission,
	// install, firing, flush and outage as a network-tier span.
	Trace *tracing.Recorder
}

// DefaultMaintenanceInterval is the beacon period.
const DefaultMaintenanceInterval = 30 * time.Second

// lifecycleSpans sizes the lifecycle recorder: a query leaves an admit span
// and at most two more (first result, cancel), so it holds the last 4 096
// queries that leave two spans and at least 2 730 that leave three. A ring
// for 4 096 of the latter measured a quarter more peak memory on the churn
// benchmark, whose four shard simulations fill theirs.
const lifecycleSpans = 2 * tracing.DefaultCapacity

// installedQuery is a network query (synthetic or raw user) the base
// station is currently collecting results for. It is also the event that
// closes its collection windows: one flush is pending at a time, for epoch
// flushT.
type installedQuery struct {
	s      *Simulation
	q      query.Query
	start  sim.Time
	flush  sim.Handle
	flushT sim.Time
	// open holds the epochs with arrivals not yet flushed — the current
	// epoch and, when slots overlap the next firing, the one after. spare is
	// the state buffer of the last epoch flushed, for the next one opened.
	open  []epochBuffer
	spare []query.AggState
}

// Fire closes the pending collection window and opens the next.
func (inst *installedQuery) Fire() {
	s := inst.s
	s.flush(inst, inst.flushT)
	// Delivering results can terminate the query from inside the flush (a
	// result hook cancelling the last subscriber's query); only a
	// still-installed query gets its next collection window.
	if s.installed[inst.q.ID] == inst {
		s.scheduleFlush(inst, inst.flushT+sim.Time(inst.q.ReportEvery()))
	}
}

// epochBuffer accumulates one epoch's worth of arrivals for one query.
type epochBuffer struct {
	epochT sim.Time
	// rows holds the rows in arrival order, each copied out of its message
	// as it came off the air; the flush orders them (byOrigin) and hands
	// the slice on.
	rows   []query.Row
	states []query.AggState
}

// bufferFor returns the query's buffer for epochT, opening it if need be.
func (inst *installedQuery) bufferFor(epochT sim.Time) *epochBuffer {
	for i := range inst.open {
		if inst.open[i].epochT == epochT {
			return &inst.open[i]
		}
	}
	inst.open = append(inst.open, epochBuffer{epochT: epochT, states: inst.spare})
	inst.spare = nil
	return &inst.open[len(inst.open)-1]
}

// put stores a row as it arrives.
func (b *epochBuffer) put(origin topology.NodeID, vals field.Values) {
	b.rows = append(b.rows, query.Row{Node: origin, Time: b.epochT, Values: vals})
}

// byOrigin orders an epoch's rows ascending by origin, in place, keeping of
// an origin put more than once only its last arrival. Origins are node ids,
// so it is a counting pass: lastRow (all zero between calls) records each
// origin's last row, plus one, and the rows go back in id order through
// sorted.
func (s *Simulation) byOrigin(rows []query.Row) []query.Row {
	for i := range rows {
		s.lastRow[rows[i].Node] = int32(i + 1)
	}
	sorted := s.sorted[:0]
	for origin, i := range s.lastRow {
		if i > 0 {
			sorted = append(sorted, rows[i-1])
			s.lastRow[origin] = 0
		}
	}
	s.sorted = sorted
	return rows[:copy(rows, sorted)]
}

// Simulation is a runnable sensor network executing one scheme.
type Simulation struct {
	cfg    Config
	policy node.Policy

	engine *sim.Engine
	topo   *topology.Topology
	source field.Source
	medium *radio.Medium
	coll   *metrics.Collector
	opt    *core.Optimizer // nil unless the scheme uses tier 1
	nodes  []*node.Node

	installed map[query.ID]*installedQuery
	// identity maps user queries when tier 1 is off.
	users map[query.ID]query.Query

	results *Results
	// spans records query lifecycles; waiting holds the admitted queries
	// whose first result is still to come.
	spans    *tracing.Recorder
	waiting  map[query.ID]struct{}
	nextID   query.ID
	batch    []query.Query // PostBatch's prepared queries; reused, cleared after each call
	failures int
	// series is the sampler StartSeries attached, if any.
	series *Series

	// lastRow and sorted are byOrigin's scratch, one slot per node and one
	// row per origin.
	lastRow []int32
	sorted  []query.Row
}

// New builds a simulation. Queries are admitted with Post/PostAt and the
// virtual clock advanced with Run.
func New(cfg Config) (*Simulation, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("network: Topo is required")
	}
	if cfg.Scheme == 0 {
		return nil, fmt.Errorf("network: Scheme is required")
	}
	engine := sim.NewEngine()
	rng := sim.NewRand(cfg.Seed)
	source := cfg.Source
	if source == nil {
		source = field.New(cfg.Topo, field.Config{Seed: cfg.Seed})
	}
	coll := metrics.NewCollector(cfg.Topo.Size())
	medium := radio.New(engine, cfg.Topo, coll, rng.Fork(1), cfg.Radio)
	medium.SetTracer(cfg.Trace)

	policy := cfg.Scheme.Policy()
	if cfg.PolicyOverride != nil {
		policy = *cfg.PolicyOverride
	}

	maint := cfg.MaintenanceInterval
	if maint == 0 {
		maint = DefaultMaintenanceInterval
	}
	if maint < 0 {
		maint = 0
	}

	s := &Simulation{
		cfg:       cfg,
		policy:    policy,
		engine:    engine,
		topo:      cfg.Topo,
		source:    source,
		medium:    medium,
		coll:      coll,
		installed: make(map[query.ID]*installedQuery),
		users:     make(map[query.ID]query.Query),
		results:   newResults(!cfg.DiscardResults),
		spans:     tracing.New(tracing.TierNetwork, lifecycleSpans),
		waiting:   make(map[query.ID]struct{}),
		nextID:    1,
		lastRow:   make([]int32, cfg.Topo.Size()),
	}
	if cfg.Scheme.UsesBaseStationOpt() {
		model, err := cost.NewModel(cfg.Topo.LevelSizes(), cost.Config{})
		if err != nil {
			return nil, err
		}
		s.opt = core.NewOptimizer(model, core.Options{Alpha: cfg.Alpha})
	}

	s.nodes = make([]*node.Node, 0, cfg.Topo.Size()-1)
	for i := 1; i < cfg.Topo.Size(); i++ {
		s.nodes = append(s.nodes, node.New(node.Config{
			ID:                  topology.NodeID(i),
			Topo:                cfg.Topo,
			Engine:              engine,
			Medium:              medium,
			Source:              source,
			Policy:              policy,
			MaintenanceInterval: maint,
			Rand:                rng.Fork(int64(100 + i)),
			Metrics:             coll,
			Trace:               cfg.Trace,
		}))
	}
	medium.SetHandler(topology.BaseStation, s.onReceive)
	s.startFailures(cfg.Failures, rng.Fork(7))
	return s, nil
}

// Engine exposes the virtual clock (examples and tests).
func (s *Simulation) Engine() *sim.Engine { return s.engine }

// Topology returns the deployment the simulation runs on.
func (s *Simulation) Topology() *topology.Topology { return s.topo }

// Metrics returns the radio accounting collector.
func (s *Simulation) Metrics() *metrics.Collector { return s.coll }

// Results returns the delivered user results.
func (s *Simulation) Results() *Results { return s.results }

// Optimizer returns the tier-1 optimizer, or nil for schemes without it.
func (s *Simulation) Optimizer() *core.Optimizer { return s.opt }

// Spans returns the query-lifecycle recorder: an admit span per admission
// (Seq: synthetic queries the tier-1 rewrite injected), a first-result span
// at the first non-empty delivery and a cancel span per termination, each
// with the query ID in Trace; tracing.Lifecycles pairs them. The recorder is
// internally locked, so it may be snapshotted from any goroutine while the
// simulation runs.
func (s *Simulation) Spans() *tracing.Recorder { return s.spans }

// Node returns the runtime of sensor node id (tests).
func (s *Simulation) Node(id topology.NodeID) *node.Node {
	if id <= 0 || int(id) > len(s.nodes) {
		return nil
	}
	return s.nodes[id-1]
}

// Run advances the simulation by d of virtual time.
func (s *Simulation) Run(d time.Duration) {
	s.engine.Run(s.engine.Now() + sim.Time(d))
}

// AvgTransmissionTime returns the paper's metric over the elapsed virtual
// time, as a fraction in [0, 1].
func (s *Simulation) AvgTransmissionTime() float64 {
	return s.coll.AvgTransmissionTime(time.Duration(s.engine.Now()))
}

// NextID allocates a fresh user query ID.
func (s *Simulation) NextID() query.ID {
	id := s.nextID
	s.nextID++
	return id
}

// Post admits a user query at the current virtual time: a batch of one. If
// q.ID is zero a fresh ID is assigned; the (possibly assigned) ID is returned.
func (s *Simulation) Post(q query.Query) (query.ID, error) {
	ids, err := s.PostBatch([]query.Query{q})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// PostBatch admits user queries as one operation at the current virtual time
// and returns their IDs, assigning a fresh one to each query whose ID is zero.
// Every query is normalized, validated and numbered before any is admitted,
// and a batch that repeats an ID or reuses a live one is rejected whole: a
// rejected batch changes nothing in tier 1 or the network. Under a tier-1
// scheme the optimizer computes the net change, so synthetic queries that the
// batch itself supersedes are never flooded; without tier 1 each query runs
// as posted.
func (s *Simulation) PostBatch(qs []query.Query) ([]query.ID, error) {
	defer func() { clear(s.batch) }()
	next := s.nextID
	err := s.prepare(qs)
	var ch core.Change
	if err == nil && s.opt != nil {
		ch, err = s.opt.Insert(s.batch...)
	}
	if err != nil {
		s.nextID = next
		return nil, err
	}
	// The admit span's Seq is the number of synthetic queries the rewrite
	// injected; zero means shared queries already running cover the batch.
	injected := len(ch.Inject)
	if s.opt == nil {
		ch.Inject, injected = s.batch, 1
	}
	now := s.engine.Now()
	for _, q := range s.batch {
		if s.opt == nil {
			s.users[q.ID] = q
		}
		s.spans.Record(tracing.Span{Trace: uint64(q.ID), Kind: tracing.KindAdmit, At: int64(now), Seq: uint64(injected)})
		s.waiting[q.ID] = struct{}{}
	}
	s.apply(ch)
	ids := make([]query.ID, len(s.batch))
	for i, q := range s.batch {
		ids[i] = q.ID
		if s.cfg.Trace != nil { // boxing q allocates even when nothing is logged
			s.cfg.Trace.Eventf(int64(now), int(topology.BaseStation), tracing.KindAdmit, "q%d %s", q.ID, q)
		}
		// TinyDB LIFETIME clause: the query terminates itself. Manual
		// cancellation may race ahead; the auto-cancel then finds the query
		// gone and does nothing.
		if q.Lifetime > 0 {
			qid := q.ID
			s.engine.After(q.Lifetime, func() { _ = s.Cancel(qid) })
		}
	}
	return ids, nil
}

// prepare normalizes, validates and numbers qs into s.batch, rejecting an ID
// that repeats in the batch or is already live.
func (s *Simulation) prepare(qs []query.Query) error {
	s.batch = s.batch[:0]
	for _, q := range qs {
		q = q.Normalize()
		if err := q.Validate(); err != nil {
			return err
		}
		if q.ID == 0 {
			q.ID = s.NextID()
		} else if q.ID >= s.nextID {
			s.nextID = q.ID + 1
		}
		_, live := s.users[q.ID]
		if s.opt != nil {
			_, live = s.opt.SyntheticFor(q.ID)
		}
		if live || slices.ContainsFunc(s.batch, func(p query.Query) bool { return p.ID == q.ID }) {
			return fmt.Errorf("network: duplicate query ID %d", q.ID)
		}
		s.batch = append(s.batch, q)
	}
	return nil
}

// PostAt schedules a user query admission at virtual time t (tests and
// workload replay). The query must carry an explicit ID.
func (s *Simulation) PostAt(t time.Duration, q query.Query) {
	s.engine.Schedule(sim.Time(t), func() {
		if _, err := s.Post(q); err != nil {
			panic(fmt.Sprintf("network: PostAt(%v, %v): %v", t, q, err))
		}
	})
}

// Schedule posts every query of a workload at its arrival and cancels each
// one that departs at its departure, unless its LIFETIME has ended it first.
func (s *Simulation) Schedule(ws []workload.TimedQuery) {
	for _, w := range ws {
		s.PostAt(w.Arrive, w.Query)
		if w.Departs(w.Arrive) {
			s.CancelAt(w.Depart, w.Query.ID)
		}
	}
}

// Cancel terminates a user query at the current virtual time. The cancel
// span is recorded only after successful termination, so cancelling an
// unknown or already-expired ID (e.g. a manual cancel racing a LIFETIME
// auto-cancel) does not pollute the log.
func (s *Simulation) Cancel(qid query.ID) error {
	if s.opt != nil {
		ch, err := s.opt.Terminate(qid)
		if err != nil {
			return err
		}
		s.apply(ch)
	} else {
		if _, ok := s.users[qid]; !ok {
			return fmt.Errorf("network: unknown query %d", qid)
		}
		delete(s.users, qid)
		s.apply(core.Change{Abort: []query.ID{qid}})
	}
	delete(s.waiting, qid)
	now := int64(s.engine.Now())
	s.spans.Record(tracing.Span{Trace: uint64(qid), Kind: tracing.KindCancel, At: now})
	s.cfg.Trace.Eventf(now, int(topology.BaseStation), tracing.KindCancel, "q%d", qid)
	return nil
}

// CancelAt schedules a cancellation.
func (s *Simulation) CancelAt(t time.Duration, qid query.ID) {
	s.engine.Schedule(sim.Time(t), func() {
		if err := s.Cancel(qid); err != nil {
			panic(fmt.Sprintf("network: CancelAt(%v, %d): %v", t, qid, err))
		}
	})
}

// firstResult records the first non-empty delivery to a user query, one of
// n results.
func (s *Simulation) firstResult(id query.ID, n int) {
	if _, ok := s.waiting[id]; !ok || n == 0 {
		return
	}
	delete(s.waiting, id)
	s.spans.Record(tracing.Span{Trace: uint64(id), Kind: tracing.KindFirstResult, At: int64(s.engine.Now())})
}

// apply floods the aborts and injections of a tier-1 change set.
func (s *Simulation) apply(ch core.Change) {
	for _, qid := range ch.Abort {
		s.floodAbort(qid)
	}
	for _, q := range ch.Inject {
		s.floodQuery(q)
	}
}

// startTime picks the first epoch of a query: aligned schemes snap to the
// next multiple of the reporting period after a propagation guard (§3.2.1 —
// "the epoch start time ... is set to be divisible by the epoch duration";
// windowed queries align to their slide schedule so the base station's
// collection windows coincide with the nodes' reports); the baseline keeps
// TinyDB's injection-derived phase.
func (s *Simulation) startTime(q query.Query) sim.Time {
	now := s.engine.Now()
	if s.policy.AlignedEpochs {
		period := sim.Time(q.ReportEvery())
		guard := now + sim.Time(node.StartGuard)
		k := guard / period
		if guard%period != 0 {
			k++
		}
		if k == 0 {
			k = 1
		}
		return k * period
	}
	return now + sim.Time(q.Epoch)
}

// floodQuery injects a network query: the base station broadcasts the
// propagation message (each node rebroadcasts once — see node.onQuery) and
// starts collecting its results.
func (s *Simulation) floodQuery(q query.Query) {
	start := s.startTime(q)
	inst := &installedQuery{s: s, q: q, start: start}
	s.installed[q.ID] = inst
	s.medium.Send(&radio.Message{
		Kind:  radio.KindQuery,
		Src:   topology.BaseStation,
		Bytes: node.QueryMsgBytes(q),
		Payload: &node.QueryMsg{
			Q:     q,
			Start: start,
		},
	})
	s.scheduleFlush(inst, start)
}

func (s *Simulation) floodAbort(qid query.ID) {
	inst, ok := s.installed[qid]
	if !ok {
		return
	}
	delete(s.installed, qid)
	if inst.flush.Pending() {
		inst.flush.Cancel()
	}
	s.medium.Send(&radio.Message{
		Kind:    radio.KindAbort,
		Src:     topology.BaseStation,
		Bytes:   node.AbortMsgBytes(),
		Payload: &node.AbortMsg{QID: qid},
	})
}

// flushDelay is how long after an epoch fires the base station closes its
// collection window: every level's slot plus queueing slack.
func (s *Simulation) flushDelay() sim.Time {
	return sim.Time(time.Duration(s.topo.MaxDepth()+1)*node.SlotTime + 500*time.Millisecond)
}

func (s *Simulation) scheduleFlush(inst *installedQuery, epochT sim.Time) {
	inst.flushT = epochT
	inst.flush = s.engine.ScheduleAction(epochT+s.flushDelay(), inst)
}

// onReceive is the base station's radio handler: addressed result messages
// land in per-(query, epoch) buffers until their flush.
func (s *Simulation) onReceive(d radio.Delivery) {
	if !d.Addressed {
		return
	}
	msg, ok := d.Msg.Payload.(*node.ResultMsg)
	if !ok {
		return
	}
	s.coll.AddLatency(time.Duration(s.engine.Now() - msg.EpochT))
	for _, qid := range msg.QueriesFor(topology.BaseStation) {
		inst, live := s.installed[qid]
		if !live {
			continue
		}
		buf := inst.bufferFor(msg.EpochT)
		if msg.IsAggregation() {
			for _, st := range msg.States {
				buf.states = query.FoldState(buf.states, st)
			}
		} else {
			buf.put(msg.Origin, msg.Row)
		}
	}
}

// flush closes one epoch's collection window and delivers user results,
// through the tier-1 mapper when the scheme rewrites queries and as-is
// otherwise.
func (s *Simulation) flush(inst *installedQuery, epochT sim.Time) {
	if s.cfg.Trace != nil {
		s.cfg.Trace.Eventf(int64(s.engine.Now()), int(topology.BaseStation), tracing.KindFlush, "q%d epoch=%v", inst.q.ID, epochT)
	}
	// Windows close in epoch order, so whatever is buffered for this epoch
	// or an earlier one is either flushed now or arrived too late to be.
	var rows []query.Row
	var states []query.AggState
	kept := inst.open[:0]
	for _, buf := range inst.open {
		switch {
		case buf.epochT > epochT:
			kept = append(kept, buf)
		case buf.epochT == epochT:
			rows, states = s.byOrigin(buf.rows), buf.states
		}
	}
	inst.open = kept
	s.deliver(inst, epochT, rows, states)
	if states != nil {
		inst.spare = states[:0]
	}
}

// deliver hands one closed epoch to the users. The rows move on as they are;
// the states are only read.
func (s *Simulation) deliver(inst *installedQuery, epochT sim.Time, rows []query.Row, states []query.AggState) {
	if s.opt == nil {
		// Identity mapping: the network query is the user query.
		uq, live := s.users[inst.q.ID]
		switch {
		case !live:
		case uq.IsAggregation():
			s.addAgg(core.UserAgg{QueryID: uq.ID, Time: epochT, Results: core.AggregateStates(uq, epochT, states)})
		default:
			s.addRows(core.UserRows{QueryID: uq.ID, Time: epochT, Rows: rows})
		}
		return
	}
	// §3.1.2 statistics maintenance: returned readings refine the
	// optimizer's per-attribute histograms, so future selectivity estimates
	// track the live data distribution.
	observe := s.opt.Model().Observe
	for i := range rows {
		rows[i].Values.Each(observe)
	}
	if inst.q.IsAggregation() {
		for _, ua := range s.opt.MapAggregation(inst.q.ID, epochT, states) {
			s.addAgg(ua)
		}
		return
	}
	acq, agg := s.opt.MapAcquisition(inst.q.ID, epochT, rows)
	for _, ur := range acq {
		s.addRows(ur)
	}
	for _, ua := range agg {
		s.addAgg(ua)
	}
}

// addRows and addAgg store one delivery to a user query.
func (s *Simulation) addRows(ur core.UserRows) {
	s.results.addRows(ur)
	s.firstResult(ur.QueryID, len(ur.Rows))
}

func (s *Simulation) addAgg(ua core.UserAgg) {
	s.results.addAgg(ua)
	s.firstResult(ua.QueryID, len(ua.Results))
}
