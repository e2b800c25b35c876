package chaos

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/federation"
	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/resilience"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
	"repro/internal/workload"
)

// drill is one table entry: the stack it runs on, the workload it populates
// it with, what it does to it at which round, and what it checks beyond the
// standard tally.
type drill struct {
	name string
	// side and clients are the defaults behind Config.Side / Config.Clients.
	side, clients int
	// quantum is the virtual time one round advances (defaultQuantum if
	// zero).
	quantum time.Duration
	// spec describes the drill's stack; it may also plan the run (a
	// script's rounds and crash actions come from the script).
	spec func(r *run) (stack.Spec, error)
	// pool is the query workload; client c subscribes perClient of them,
	// round-robin, so semantic dedup is always in play.
	pool      func(r *run) []query.Query
	perClient int
	// stage, when set, stages the drill's own commands every round, after
	// the actions and before the Advance that commits them.
	stage func(r *run, pool []query.Query) error
	// actions fire at the start of their round, before its Advance; settle
	// is how many rounds past the last one the drill needs to see recovery.
	actions []action
	settle  int
	// observe sees every fresh delivery; check runs against the live stack
	// before teardown, with the tiers' final counters already in the report.
	observe func(r *run, s *stream, u tier.Update)
	check   func(r *run)
	// wall replaces the round loop: the body of a wall-clock socket drill.
	wall func(r *run) error
}

type action struct {
	round int
	kind  actionKind
}

type actionKind uint8

const (
	// Faults (they set UpdatesAtFault) and the clears that undo them (they
	// set UpdatesAtClear), on the drill's victim.
	actCrash actionKind = iota
	actRecover
	actPartition
	actHeal
	actStall
	actUnstall
	// actLate registers one more client, mid-outage, on the pool's first
	// query.
	actLate
	// actBounce is a script's crash step: it fires after its round's
	// Advance, in place of the drain, and recovers at once (see run.bounce).
	actBounce
)

// ScriptDrill runs Config.Script — a builtin or parsed Scenario — against a
// single gateway. It is not in DrillNames: its name list is BuiltinNames.
const ScriptDrill = "script"

// The sharded drills run fedShards shards and fault the last one, the
// victim; the pinned drill counters are recorded against that choice.
const (
	fedShards = 2
	victim    = fedShards - 1
)

// shareLedgerCap bounds the value-consistency ledger: cached replays and
// crash-recovery re-deliveries land within a few windows of the live
// cursor, so a sliding window this deep checks every consistency-relevant
// observation while keeping a long soak's memory flat.
const shareLedgerCap = 512

// herdRetryAfter is the herd's shed hint floor, small so retries resolve in
// test time while still being asserted against every observed sleep.
const herdRetryAfter = 10 * time.Millisecond

// drills is the table, in study order.
var drills = []*drill{
	{
		// A scripted fault schedule — node churn, loss bursts, partitions,
		// gateway crashes — against one gateway. Engine-level steps inject
		// via gateway.Config.OnSim so recovery replays them identically;
		// every delivered row is checked against the deterministic field.
		name: ScriptDrill, side: 4, clients: defaultClients,
		spec: scriptSpec, pool: scriptPool, perClient: 1, observe: observeRows,
	},
	{
		// Many sessions churn one gateway at once: every round each client
		// stages a seeded subscribe or unsubscribe from its own goroutine and
		// one Advance commits them all. A crash mid-run brings the admin
		// plane's readiness probes and final /metrics validation along.
		name: "session-churn", side: 4, clients: 32,
		spec: func(r *run) (stack.Spec, error) {
			cfg, err := r.gatewayConfig()
			return stack.Spec{Gateway: cfg}, err
		},
		pool: churnPool, perClient: 1, stage: churn,
		actions: []action{{8, actBounce}},
		check: func(r *run) {
			if s := r.st.Gateway().Stats(); s.Unsubscribes == 0 || s.Recoveries != 1 {
				r.violate("churn: unsubscribes=%d recoveries=%d, want > 0 and 1", s.Unsubscribes, s.Recoveries)
			}
		},
	},
	{
		// Crash one shard's gateway mid-stream, run degraded (cross-shard
		// trees stall at the frozen watermark while the healthy shards keep
		// advancing), then rebuild it from its WAL and resume the canonical
		// upstream streams in place.
		name: "kill-a-shard", side: 3, clients: defaultClients,
		spec: routerSpec, pool: fedPool, perClient: 2, settle: 2,
		actions: []action{{5, actCrash}, {9, actRecover}},
		check: func(r *run) {
			checkResumed(r)
			if s := r.rep.Router; s.ShardCrashes != 1 || s.ShardRecoveries != 1 {
				r.violate("crash/recovery cycle = %d/%d, want 1/1", s.ShardCrashes, s.ShardRecoveries)
			}
		},
	},
	{
		// Cut the router off from a live shard (the shard keeps advancing;
		// its updates park in bounded resume rings), then heal and replay
		// the parked tail.
		name: "partition-the-router", side: 3, clients: defaultClients,
		spec: routerSpec, pool: fedPool, perClient: 2, settle: 2,
		actions: []action{{5, actPartition}, {9, actHeal}},
		check: func(r *run) {
			checkResumed(r)
			if s := r.rep.Router; s.Partitions != 1 || s.Heals != 1 {
				r.violate("partition/heal cycle = %d/%d, want 1/1", s.Partitions, s.Heals)
			}
		},
	},
	{
		// Crash the gateway underneath the sharing coordinator while cached
		// replay and live delivery interleave. A subscriber who joins DURING
		// the outage must still replay the cached window immediately; after
		// the gateway is rebuilt from its WAL every downstream stream resumes
		// in place. Every (query, epoch) must carry identical content
		// wherever it is observed — across subscribers, replays and the crash.
		name: "crash-under-the-cache", side: 4, clients: defaultClients,
		spec: shareSpec, pool: sharePool, perClient: 2, settle: 2,
		actions: []action{{6, actCrash}, {7, actLate}, {9, actRecover}},
		observe: func(r *run, _ *stream, u tier.Update) {
			if r.ledger.check(epochKey{qid: u.QueryID, at: u.At}, fmt.Sprintf("%v|%v", u.Rows, u.Aggs)) {
				r.rep.ValueMismatches++
			}
		},
		check: checkShare,
	},
	{
		// A burst of clients far larger than the admission bound all
		// subscribe at once over real TCP. The mailbox depth must stay
		// bounded, every shed client must honor the server's retry-after
		// floor, and the backoff re-subscribes must not double-admit.
		name: "thundering-herd", side: 4, clients: 24,
		spec: func(r *run) (stack.Spec, error) {
			cfg, err := r.gatewayConfig()
			cfg.MaxStaged = herdMaxStaged
			cfg.ShedRetryAfter = herdRetryAfter
			// Fast hysteresis both ways so the ladder exercises and recovers
			// within the drill's horizon.
			cfg.Brownout = resilience.BrownoutConfig{EscalateAfter: 2, RecoverAfter: 2}
			return stack.Spec{Gateway: cfg}, err
		},
		wall: herd,
	},
	{
		// A subscriber stops reading its result stream while holding the
		// connection open. The server's write deadline (or the gateway's
		// slow-consumer eviction, whichever fires first) must drop it, the
		// healthy subscribers must keep progressing, and no forwarder
		// goroutine may stay wedged behind the dead socket.
		name: "slow-loris", side: 4, clients: 2,
		spec: func(r *run) (stack.Spec, error) {
			cfg, err := r.gatewayConfig()
			// A small buffer makes the slow-consumer bound fire in test time
			// once the loris stops reading.
			cfg.Buffer = 256
			return stack.Spec{Gateway: cfg}, err
		},
		wall: loris,
	},
	{
		// One shard wedges without crashing (its gateway stays alive and
		// reachable), which only the circuit breaker can detect and route
		// around: it must trip, cross-shard queries must keep releasing
		// epochs marked degraded with a coverage fraction (no watermark
		// deadlock), and after the shard un-wedges a half-open probe must
		// close the breaker and return coverage to 1.0. With TripAfter=2 /
		// Cooldown=2 the trip, the failed mid-wedge probe, the re-trip and
		// the successful post-clear probe all land inside 16 rounds.
		name: "stuck-shard", side: 3, clients: defaultClients,
		spec: func(r *run) (stack.Spec, error) {
			spec, err := routerSpec(r)
			spec.Router.Breaker = resilience.BreakerConfig{TripAfter: 2, Cooldown: 2}
			return spec, err
		},
		pool: fedPool, perClient: 2, settle: 3,
		actions: []action{{4, actStall}, {8, actUnstall}},
		observe: func(r *run, _ *stream, u tier.Update) {
			r.lastDegraded = u.Degraded
			if u.Degraded {
				r.rep.DegradedUpdates++
				r.rep.MinCoverage = min(r.rep.MinCoverage, u.Coverage)
			}
		},
		check: checkStuck,
	},
}

// tick is the virtual time one of the drill's rounds advances.
func (d *drill) tick() time.Duration {
	if d.quantum > 0 {
		return d.quantum
	}
	return defaultQuantum
}

// DrillNames lists the drills that need no script, in study order.
func DrillNames() []string {
	var names []string
	for _, d := range drills {
		if d.name != ScriptDrill {
			names = append(names, d.name)
		}
	}
	return names
}

func findDrill(name string) *drill {
	for _, d := range drills {
		if d.name == name {
			return d
		}
	}
	return nil
}

// apply fires one round-boundary action.
func (r *run) apply(kind actionKind, pool []query.Query) error {
	rt := r.st.Router
	switch kind {
	case actCrash, actPartition, actStall:
		r.rep.UpdatesAtFault, r.down = r.check.Updates, true
	case actRecover, actHeal, actUnstall:
		r.rep.UpdatesAtClear, r.down = r.check.Updates, false
	}
	switch kind {
	case actCrash:
		r.rep.Crashes++
		return r.st.Crash(victim)
	case actRecover:
		return r.st.Recover(victim)
	case actPartition:
		return rt.PartitionShard(victim)
	case actHeal:
		return rt.HealShard(victim)
	case actStall:
		return rt.StallShard(victim, true)
	case actUnstall:
		return rt.StallShard(victim, false)
	case actLate:
		var err error
		r.late, err = r.join("chaos-late", pool[0])
		return err
	}
	return nil
}

// gatewayConfig is the single gateway every unsharded drill starts from.
func (r *run) gatewayConfig() (gateway.Config, error) {
	topo, err := topology.PaperGrid(r.cfg.Side)
	return gateway.Config{
		Sim:     network.Config{Topo: topo, Scheme: network.TTMQO, Seed: r.cfg.Seed},
		WALPath: r.walPath(),
	}, err
}

func routerSpec(r *run) (stack.Spec, error) {
	return stack.Spec{
		Shards: fedShards,
		Router: federation.Config{Side: r.cfg.Side, Seed: r.cfg.Seed, WALDir: r.cfg.WALDir},
	}, nil
}

func checkShardsAlive(r *run) {
	for i, sh := range r.st.Router.ShardStates() {
		if !sh.Alive {
			r.violate("shard %d not alive at end of run", i)
		}
	}
}

// checkResumed: a shard that was lost and came back must have had its
// upstream streams resumed in place.
func checkResumed(r *run) {
	checkShardsAlive(r)
	if r.rep.Router.UpstreamResumes == 0 {
		r.violate("fault cleared without resuming any upstream stream")
	}
}

// fedPool is the sharded drills' workload: a cross-shard recombining
// aggregation, a region acquisition straddling the shard-0/shard-1 boundary
// and a sub-epoch aggregation, so the merge, translation and watermark
// paths all stay hot.
func fedPool(r *run) []query.Query {
	spn := r.st.Sensors() / fedShards
	return []query.Query{
		query.MustParse("SELECT MAX(light), AVG(light) EPOCH DURATION 8192"),
		query.MustParse(fmt.Sprintf("SELECT nodeid, light WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION 8192", spn, spn+1)),
		query.MustParse("SELECT MIN(temp), COUNT(temp) EPOCH DURATION 4096"),
	}
}

// ---------------------------------------------------------------------------
// ScriptDrill

// scriptSpec plans a script's run — its seed, rounds, bounds and the round
// boundary right after each crash instant — and describes its gateway.
func scriptSpec(r *run) (stack.Spec, error) {
	sc := r.cfg.Script
	if sc == nil {
		return stack.Spec{}, fmt.Errorf("chaos: %s needs Config.Script", ScriptDrill)
	}
	if sc.Seed != 0 {
		r.cfg.Seed = sc.Seed
	}
	q := r.d.tick()
	if r.cfg.Rounds <= 0 {
		r.cfg.Rounds = max(int(sc.Horizon()/q)+4, defaultRounds)
	}
	for _, at := range sc.Crashes() {
		// The 1-based round whose end covers the crash instant.
		i := min(max(int((at+q-1)/q), 1), r.cfg.Rounds)
		r.actions = append(r.actions, action{i - 1, actBounce})
	}
	r.rep.Scenario, r.rep.FaultEvents, r.maxGaps = sc.Name, len(sc.Steps), sc.MaxGaps
	if sc.MinCompleteness != 0 {
		r.minCompleteness = sc.MinCompleteness
	}

	cfg, err := r.gatewayConfig()
	if err != nil {
		return stack.Spec{}, err
	}
	r.truth = rowTruth{topo: cfg.Sim.Topo, src: field.New(cfg.Sim.Topo, field.Config{Seed: r.cfg.Seed})}
	cfg.Sim.Source = r.truth.src
	cfg.Sim.Radio = radio.Config{CollisionFactor: radio.DefaultCollisionFactor}
	cfg.ChaosLabel = sc.Name
	cfg.OnSim = func(s *network.Simulation) { Inject(s, sc.EngineSteps()) }
	return stack.Spec{Gateway: cfg}, nil
}

// scriptPool is the overlapping acquisition workload of the gateway drills.
func scriptPool(*run) []query.Query {
	return []query.Query{
		query.MustParse("SELECT nodeid, light WHERE light >= 100 AND light <= 900 EPOCH DURATION 4096"),
		query.MustParse("SELECT nodeid, light WHERE light >= 150 AND light <= 850 EPOCH DURATION 8192"),
		query.MustParse("SELECT nodeid, light WHERE light >= 200 EPOCH DURATION 4096"),
	}
}

// rowTruth is the deterministic field a script's rows were sampled from.
type rowTruth struct {
	topo *topology.Topology
	src  *field.Field
}

// observeRows holds one delivered acquisition epoch against the field: loss,
// churn and WAL replay may drop rows but never alter one. ExpectedRows grows
// by what a loss-free network would have returned for this query at this
// instant; a row whose value differs from the field's, fails the query's
// predicate or repeats a node is a ValueMismatch.
func observeRows(r *run, s *stream, u tier.Update) {
	if u.Rows == nil {
		return
	}
	for i := 1; i < r.truth.topo.Size(); i++ {
		var vals field.Values
		vals.Set(field.AttrLight, r.truth.light(topology.NodeID(i), u.At))
		if s.q.MatchesValues(&vals) {
			r.rep.ExpectedRows++
		}
	}
	seen := make([]bool, r.truth.topo.Size())
	for _, row := range u.Rows {
		v, ok := row.Values.Get(field.AttrLight)
		if !ok || v != r.truth.light(row.Node, u.At) || !s.q.MatchesValues(&row.Values) || seen[row.Node] {
			r.rep.ValueMismatches++
		}
		seen[row.Node] = true
	}
}

func (t rowTruth) light(id topology.NodeID, at sim.Time) float64 {
	return t.src.Reading(id, field.AttrLight, at)
}

// ---------------------------------------------------------------------------
// session-churn

// churnRate is the per-round probability that a client changes its set;
// churnMax caps the streams it holds.
const (
	churnRate = 0.35
	churnMax  = 2
)

// churnPool is twelve of the §4.3 random queries.
func churnPool(*run) []query.Query {
	var pool []query.Query
	for _, tq := range workload.Random(workload.RandomConfig{Seed: 7777, NumQueries: 12}) {
		pool = append(pool, tq.Query)
	}
	return pool
}

// churn stages every client's seeded move for the round, each from its own
// goroutine: with probability churnRate a client subscribes to a pool query
// (always when it holds no stream, on a coin flip below churnMax) or else
// unsubscribes one of its streams. The Advance commits them in (session
// name, seq) order, so the run is a function of the seed however the
// goroutines interleave.
func churn(r *run, pool []query.Query) error {
	staged := make([]*stream, len(r.clients))
	errs := make([]error, len(r.clients))
	each(len(r.clients), func(i int) {
		c := r.clients[i]
		if c.rng.Float64() >= churnRate {
			return
		}
		var mine []*stream
		for _, s := range r.streams {
			if s.c == c {
				mine = append(mine, s)
			}
		}
		if len(mine) == 0 || len(mine) < churnMax && c.rng.Float64() < 0.5 {
			q := pool[c.rng.Intn(len(pool))]
			tk, err := c.sess.SubscribeAsync(tier.SubscribeRequest{Query: q})
			staged[i], errs[i] = &stream{c: c, q: q, ticket: tk}, err
			return
		}
		s := mine[c.rng.Intn(len(mine))]
		s.ticket, errs[i] = c.sess.UnsubscribeAsync(s.sub.ID())
		staged[i] = s
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, s := range staged {
		if s != nil {
			r.pending = append(r.pending, s)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// crash-under-the-cache

// shareSpec owns the flight recorders, not the tiers, so the crash does not
// take the trace with it: recovery reuses the same Config and keeps
// appending to the same ring.
func shareSpec(r *run) (stack.Spec, error) {
	cfg, err := r.gatewayConfig()
	cfg.Tracer = tracing.New(tracing.TierGateway, 0)
	coord := share.Config{Window: r.cfg.Window, Tracer: tracing.New(tracing.TierShare, 0)}
	r.recs = []*tracing.Recorder{coord.Tracer, cfg.Tracer}
	r.ledger = newFingerprintLedger(shareLedgerCap)
	return stack.Spec{Share: true, Gateway: cfg, Coord: coord}, err
}

// sharePool: overlapping region aggregates (shared interior cells), a
// full-range AVG (basis rewrite) and a region acquisition, so recombination,
// caching and row concatenation all stay hot across the crash.
func sharePool(r *run) []query.Query {
	return []query.Query{
		query.MustParse("SELECT SUM(light), AVG(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192"),
		query.MustParse(fmt.Sprintf("SELECT SUM(light), AVG(light) WHERE nodeid >= 5 AND nodeid <= %d EPOCH DURATION 8192", r.st.Sensors()-3)),
		query.MustParse("SELECT AVG(temp) EPOCH DURATION 8192"),
		query.MustParse("SELECT nodeid, light WHERE nodeid >= 1 AND nodeid <= 12 EPOCH DURATION 8192"),
	}
}

func checkShare(r *run) {
	rep, s := r.rep, r.rep.Share
	if rep.LateReplayed == 0 {
		r.violate("mid-outage subscriber got no cached replay")
	}
	if r.late != nil && r.check.Last(r.late.sub.ID()) <= uint64(rep.LateReplayed) {
		r.violate("late subscriber never advanced past its replayed window")
	}
	if s.Reattaches != 1 {
		r.violate("reattaches = %d, want 1", s.Reattaches)
	}
	if s.UpstreamResumes == 0 {
		r.violate("recovery resumed no fragment streams")
	}
	if s.CacheHits == 0 || s.ReplayedEpochs == 0 {
		r.violate("cache never served a replay (hits=%d, epochs=%d)", s.CacheHits, s.ReplayedEpochs)
	}
	if !r.st.Coord.Alive() {
		r.violate("coordinator not alive at end of run")
	}
}

// epochKey identifies one (query, epoch) delivery for the consistency
// ledger.
type epochKey struct {
	qid query.ID
	at  time.Duration
}

// fingerprintLedger pins the first-seen fingerprint of each (query,
// epoch) and bounds its own memory with FIFO eviction over insertion
// order. Observations whose key has slid off the window are re-pinned
// rather than checked — consistency is enforced across the window where
// replays and recoveries actually land, at O(cap) space no matter how
// long the drill runs.
type fingerprintLedger struct {
	limit int
	seen  map[epochKey]string
	order []epochKey // circular FIFO of live keys once len == limit
	head  int        // next eviction slot when full
}

func newFingerprintLedger(limit int) *fingerprintLedger {
	return &fingerprintLedger{
		limit: limit,
		seen:  make(map[epochKey]string, limit),
		order: make([]epochKey, 0, limit),
	}
}

// check records fp for k on first sight and reports whether a previously
// pinned fingerprint disagrees.
func (l *fingerprintLedger) check(k epochKey, fp string) (mismatch bool) {
	if prev, ok := l.seen[k]; ok {
		return prev != fp
	}
	if len(l.order) == l.limit {
		delete(l.seen, l.order[l.head])
		l.order[l.head] = k
		l.head = (l.head + 1) % l.limit
	} else {
		l.order = append(l.order, k)
	}
	l.seen[k] = fp
	return false
}

// size reports the number of pinned fingerprints (bounded by the cap).
func (l *fingerprintLedger) size() int { return len(l.seen) }

// ---------------------------------------------------------------------------
// stuck-shard

func checkStuck(r *run) {
	rep, s := r.rep, r.rep.Router
	checkShardsAlive(r)
	if rep.UpdatesAtClear <= rep.UpdatesAtFault {
		r.violate("watermark deadlock: no releases while the shard was wedged (%d then, %d at clear)",
			rep.UpdatesAtFault, rep.UpdatesAtClear)
	}
	if rep.DegradedUpdates == 0 {
		r.violate("breaker never produced a degraded release")
	}
	if rep.MinCoverage <= 0 || rep.MinCoverage >= 1 {
		r.violate("degraded coverage fraction %v outside (0, 1)", rep.MinCoverage)
	}
	if r.lastDegraded {
		r.violate("coverage never returned to 1.0 after the probe closed the breaker")
	}
	if s.BreakerTrips == 0 {
		r.violate("breaker never tripped")
	}
	if s.BreakerProbes == 0 {
		r.violate("breaker never probed half-open")
	}
	if s.BreakerRecoveries == 0 {
		r.violate("breaker never recovered")
	}
	if s.DegradedEpochs == 0 {
		r.violate("router released no degraded epochs")
	}
	if s.ShardStalls != 1 {
		r.violate("shard stalls = %d, want 1", s.ShardStalls)
	}
	if s.StalledShards != 0 {
		r.violate("%d shard(s) still wedged at end of run", s.StalledShards)
	}
	if got := r.st.Router.ShardStates()[victim].Breaker; got != resilience.BreakerClosed {
		r.violate("victim breaker %v at end of run, want closed", got)
	}
}
