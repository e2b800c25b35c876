package chaos

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// Sharing-layer fault drill: crash the upstream gateway underneath the
// `internal/share` coordinator while cached replay and live delivery
// interleave. The coordinator owns the windowed result cache, so a late
// subscriber who joins DURING the outage must still replay the cached
// window immediately; after the gateway is rebuilt from its WAL the
// coordinator re-attaches its fragment sessions and every downstream
// stream resumes in place.
//
// The drill asserts the delivery invariants (no duplicate sequence
// numbers, no skipped sequence numbers, no epoch-timestamp regressions,
// progress after the fault clears) plus a value-consistency check: every
// (query, epoch) pair must carry identical rows and aggregates wherever
// it is observed — a replayed epoch must be byte-equal to what live
// delivery said, across subscribers and across the crash.

// ShareScenarioName is the sharing-layer drill. Like the federation
// drills it stays out of BuiltinNames: it needs a coordinator stack, not
// a bare gateway.
const ShareScenarioName = "crash-under-the-cache"

// Sharing drill rounds: fault at shareFaultRound, a late subscriber joins
// mid-outage at shareLateRound, recovery at shareClearRound.
const (
	shareFaultRound = 6
	shareLateRound  = 7
	shareClearRound = 9
)

// shareLedgerCap bounds the value-consistency ledger: cached replays and
// crash-recovery re-deliveries land within a few windows of the live
// cursor, so a sliding window this deep checks every consistency-relevant
// observation while keeping a long soak's memory flat.
const shareLedgerCap = 512

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

// ShareRunConfig parametrizes the sharing-layer drill.
type ShareRunConfig struct {
	// Seed seeds the gateway's world (1 if zero).
	Seed int64
	// Side is the grid side (4 if zero — 15 sensors).
	Side int
	// Clients is the number of early downstream sessions (DefaultClients
	// if zero).
	Clients int
	// Quantum is the virtual time per round (DefaultQuantum if zero).
	Quantum time.Duration
	// Rounds is the number of advance/drain rounds (DefaultRounds if
	// zero; must exceed shareClearRound+2 so post-recovery progress is
	// observable).
	Rounds int
	// WALDir holds the gateway WAL; required (the drill crashes and
	// recovers the upstream).
	WALDir string
	// Window is the result-cache depth in epochs (share.DefaultWindow if
	// zero).
	Window int
}

// ShareReport is the outcome of the sharing drill; every field is a pure
// function of configuration and seed.
type ShareReport struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Clients  int    `json:"clients"`
	Rounds   int    `json:"rounds"`
	// Updates/Rows are downstream deliveries; UpdatesAtFault the cursor
	// when the gateway crashed; LateReplayed counts the epochs the
	// mid-outage subscriber replayed from cache before recovery.
	Updates        int64 `json:"updates"`
	Rows           int64 `json:"rows"`
	UpdatesAtFault int64 `json:"updates_at_fault"`
	LateReplayed   int64 `json:"late_replayed"`
	// Invariant counters (see StreamChecker).
	Duplicates      int64 `json:"duplicates"`
	Gaps            int64 `json:"gaps"`
	OrderViolations int64 `json:"order_violations"`
	// ValueMismatches counts (query, epoch) observations disagreeing with
	// the first delivery of that epoch.
	ValueMismatches int64 `json:"value_mismatches"`
	// Stats is the final coordinator counter snapshot.
	Stats share.Stats `json:"stats"`
	// Violations lists every invariant breach, sorted; empty means the
	// stack degraded exactly as promised.
	Violations []string `json:"violations,omitempty"`
	// Traces is the causal-trace export (tracing.Export as JSON) collected
	// from the share and gateway flight recorders after the drill. The
	// recorders are owned by the harness, so the export spans the crash:
	// admissions before the fault, the crash and WAL-replay hops, and the
	// mid-outage cache replay are all present. Byte-identical for a given
	// seed at any test parallelism.
	Traces json.RawMessage `json:"traces,omitempty"`
}

// shareQueryPool is the drill workload: overlapping region aggregates
// (shared interior cells), a full-range AVG (basis rewrite) and a region
// acquisition, so recombination, caching and row concatenation all stay
// hot across the crash.
func shareQueryPool(sensors int) []query.Query {
	return []query.Query{
		query.MustParse("SELECT SUM(light), AVG(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192"),
		query.MustParse(fmt.Sprintf("SELECT SUM(light), AVG(light) WHERE nodeid >= 5 AND nodeid <= %d EPOCH DURATION 8192", sensors-3)),
		query.MustParse("SELECT AVG(temp) EPOCH DURATION 8192"),
		query.MustParse("SELECT nodeid, light WHERE nodeid >= 1 AND nodeid <= 12 EPOCH DURATION 8192"),
	}
}

// RunShareScenario drives a gateway+coordinator stack through the
// sharing-layer crash drill in phased rounds (stage, advance, drain,
// check). The gateway crash lands at a round boundary without draining
// first — whatever it strands in flight must come back through WAL
// recovery and the coordinator's fragment resume.
func RunShareScenario(cfg ShareRunConfig) (*ShareReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Side <= 0 {
		cfg.Side = 4
	}
	if cfg.Clients <= 0 {
		cfg.Clients = DefaultClients
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultRounds
	}
	if cfg.Rounds <= shareClearRound+2 {
		return nil, fmt.Errorf("chaos: share drill needs more than %d rounds", shareClearRound+2)
	}
	if cfg.WALDir == "" {
		return nil, fmt.Errorf("chaos: share drill needs a WAL directory (ShareRunConfig.WALDir)")
	}

	baseline := runtime.NumGoroutine()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	// The flight recorders are owned here, not by the tiers, so the crash
	// does not take the trace with it: gateway.Recover reuses the same
	// Config and keeps appending to the same ring.
	gwRec := tracing.New(tracing.TierGateway, 0)
	shareRec := tracing.New(tracing.TierShare, 0)
	gwConfig := func() gateway.Config {
		return gateway.Config{
			Sim:     network.Config{Topo: topo, Scheme: network.TTMQO, Seed: cfg.Seed},
			WALPath: filepath.Join(cfg.WALDir, "share-drill.wal"),
			Tracer:  gwRec,
		}
	}
	gw, err := gateway.New(gwConfig())
	if err != nil {
		return nil, err
	}
	defer func() { _ = gw.Close() }()
	sensors := cfg.Side*cfg.Side - 1
	coord, err := share.New(share.Config{
		Upstream: share.OverGateway(gw),
		Sensors:  sensors,
		Window:   cfg.Window,
		Tracer:   shareRec,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	rep := &ShareReport{
		Scenario: ShareScenarioName,
		Seed:     cfg.Seed,
		Clients:  cfg.Clients,
		Rounds:   cfg.Rounds,
	}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// Value consistency ledger: the first delivery of a (query, epoch)
	// pins its content; every later observation — another subscriber's
	// live copy, a cached replay, a post-recovery delivery — must match.
	// The ledger is bounded (FIFO over insertion order) so a long soak
	// holds a sliding window of epochs instead of growing forever.
	truth := newFingerprintLedger(shareLedgerCap)
	check := NewStreamChecker()
	type drillSub struct {
		sub  *share.Sub
		late bool
	}
	var subs []*drillSub
	observe := func(d *drillSub, u gateway.Update) {
		check.Observe(u)
		rep.Rows = check.Rows
		k := epochKey{qid: u.QueryID, at: u.At}
		fp := fmt.Sprintf("%v|%v", u.Rows, u.Aggs)
		if truth.check(k, fp) {
			rep.ValueMismatches++
		}
	}
	drainAll := func() {
		for _, d := range subs {
			if d.sub == nil {
				continue
			}
			for {
				select {
				case u, ok := <-d.sub.Updates():
					if !ok {
						violate("stream %d closed mid-run (%s)", d.sub.ID(), d.sub.Reason())
						d.sub = nil
					} else {
						observe(d, u)
						continue
					}
				default:
				}
				break
			}
		}
	}

	// Early population: every client subscribes two pool queries, so each
	// canonical query has multiple subscribers and the fragment registry
	// is shared from the start.
	pool := shareQueryPool(sensors)
	var tickets []*share.Ticket
	for c := 0; c < cfg.Clients; c++ {
		sess, err := coord.Register(fmt.Sprintf("chaos-%d", c))
		if err != nil {
			return nil, err
		}
		for s := 0; s < 2; s++ {
			tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: pool[(c*2+s)%len(pool)]})
			if err != nil {
				return nil, err
			}
			tickets = append(tickets, tk)
		}
	}
	if _, err := coord.Advance(cfg.Quantum); err != nil {
		return nil, err
	}
	for _, tk := range tickets {
		sub, err := tk.Wait()
		if err != nil {
			return nil, err
		}
		subs = append(subs, &drillSub{sub: sub})
	}

	var late *drillSub
	var lateTicket *share.Ticket
	down := false
	for round := 1; round < cfg.Rounds; round++ {
		if round == shareFaultRound {
			rep.UpdatesAtFault = check.Updates
			if err := gw.Crash(); err != nil {
				return nil, err
			}
			down = true
		}
		if round == shareLateRound {
			// Mid-outage subscriber: the cache must serve its window even
			// though the upstream is dead.
			sess, err := coord.Register("chaos-late")
			if err != nil {
				return nil, err
			}
			lateTicket, err = sess.SubscribeAsync(gateway.SubscribeRequest{Query: pool[0]})
			if err != nil {
				return nil, err
			}
		}
		if round == shareClearRound {
			gw2, err := gateway.Recover(gwConfig())
			if err != nil {
				return nil, err
			}
			gw = gw2
			if err := coord.Reattach(share.OverGateway(gw2)); err != nil {
				return nil, err
			}
			down = false
		}
		if _, err := coord.Advance(cfg.Quantum); err != nil {
			// During the outage the upstream refuses to advance; commands
			// still commit and cached replay still flows. Any other round
			// must advance cleanly.
			if !down {
				return nil, err
			}
		}
		if lateTicket != nil {
			sub, err := lateTicket.Wait()
			if err != nil {
				return nil, fmt.Errorf("late subscribe failed mid-outage: %w", err)
			}
			late = &drillSub{sub: sub, late: true}
			subs = append(subs, late)
			lateTicket = nil
		}
		drainAll()
		if down && late != nil && rep.LateReplayed == 0 {
			rep.LateReplayed = int64(check.Last(late.sub.ID()))
		}
	}

	rep.Stats = coord.ShareStats()
	rep.Updates = check.Updates
	rep.Rows = check.Rows
	rep.Duplicates = check.Duplicates
	rep.Gaps = check.Gaps
	rep.OrderViolations = check.OrderViolations

	if check.Duplicates > 0 {
		violate("%d duplicate deliveries", check.Duplicates)
	}
	if check.Gaps > 0 {
		violate("%d skipped sequence numbers", check.Gaps)
	}
	if check.OrderViolations > 0 {
		violate("%d epoch-order regressions", check.OrderViolations)
	}
	if rep.ValueMismatches > 0 {
		violate("%d deliveries disagreed with the pinned (query, epoch) content", rep.ValueMismatches)
	}
	if rep.UpdatesAtFault == 0 {
		violate("no deliveries before the fault round")
	}
	if rep.LateReplayed == 0 {
		violate("mid-outage subscriber got no cached replay")
	}
	if rep.Updates <= rep.UpdatesAtFault {
		violate("no progress after the fault cleared (%d then, %d now)", rep.UpdatesAtFault, rep.Updates)
	}
	if late != nil && late.sub != nil && check.Last(late.sub.ID()) <= uint64(rep.LateReplayed) {
		violate("late subscriber never advanced past its replayed window")
	}
	if rep.Stats.Reattaches != 1 {
		violate("reattaches = %d, want 1", rep.Stats.Reattaches)
	}
	if rep.Stats.UpstreamResumes == 0 {
		violate("recovery resumed no fragment streams")
	}
	if rep.Stats.CacheHits == 0 || rep.Stats.ReplayedEpochs == 0 {
		violate("cache never served a replay (hits=%d, epochs=%d)",
			rep.Stats.CacheHits, rep.Stats.ReplayedEpochs)
	}
	if !coord.Alive() {
		violate("coordinator not alive at end of run")
	}

	if err := coord.Close(); err != nil && err != gateway.ErrClosed {
		violate("coordinator close: %v", err)
	}
	if err := gw.Close(); err != nil && err != gateway.ErrClosed {
		violate("gateway close: %v", err)
	}
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		violate("%v", err)
	}
	sort.Strings(rep.Violations)
	rep.Traces = tracing.Collect(shareRec, gwRec).JSON()
	return rep, nil
}
