package chaos

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
)

// Federation fault drills: whole-shard failures injected at the router
// tier, above the engine-level node faults the single-gateway scenarios
// cover.
//
//   - kill-a-shard: crash one shard's gateway mid-stream, run degraded
//     (cross-shard trees stall at the frozen watermark while the healthy
//     shards keep advancing), then rebuild it from its WAL and resume the
//     canonical upstream streams in place.
//   - partition-the-router: cut the router off from a live shard (the
//     shard keeps advancing; its updates park in bounded resume rings),
//     then heal and replay the parked tail.
//
// Both must preserve the delivery invariants downstream: no duplicate
// sequence numbers, no skipped sequence numbers, no epoch-timestamp
// regressions, and progress must resume after the fault clears.

// FedScenarioNames lists the federation drills in study order. They are
// deliberately NOT part of BuiltinNames: the single-gateway chaos study
// iterates the builtins, and these need a router fleet to run against.
func FedScenarioNames() []string {
	return []string{"kill-a-shard", "partition-the-router"}
}

// Federation harness defaults.
const (
	DefaultFedShards = 2
	DefaultFedSide   = 3
	// fedFaultRound injects the fault at the start of this round;
	// fedClearRound recovers/heals at the start of this one.
	fedFaultRound = 5
	fedClearRound = 9
)

// FedRunConfig parametrizes one federation drill.
type FedRunConfig struct {
	// Scenario is one of FedScenarioNames (required).
	Scenario string
	// Seed seeds every shard's world (1 if zero).
	Seed int64
	// Shards is the fleet size (DefaultFedShards if zero).
	Shards int
	// Side is each shard's grid side (DefaultFedSide if zero).
	Side int
	// Clients is the number of downstream sessions (DefaultClients if zero).
	Clients int
	// Quantum is the virtual time per round (DefaultQuantum if zero).
	Quantum time.Duration
	// Rounds is the number of advance/drain rounds (DefaultRounds if zero).
	Rounds int
	// WALDir enables shard recovery; required by kill-a-shard.
	WALDir string
}

// FedReport is the outcome of one federation drill. Like Report, every
// field is a pure function of configuration and seed.
type FedReport struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Clients  int    `json:"clients"`
	Rounds   int    `json:"rounds"`
	// Updates/Rows are fresh downstream deliveries; UpdatesAtFault is the
	// cursor when the fault landed (progress after the fault clears is
	// asserted against it).
	Updates        int64 `json:"updates"`
	Rows           int64 `json:"rows"`
	UpdatesAtFault int64 `json:"updates_at_fault"`
	// Invariant counters (see StreamChecker).
	Duplicates      int64 `json:"duplicates"`
	Gaps            int64 `json:"gaps"`
	OrderViolations int64 `json:"order_violations"`
	// Stats is the final router counter snapshot.
	Stats federation.Stats `json:"stats"`
	// Violations lists every invariant breach, sorted; empty means the
	// fleet degraded exactly as promised.
	Violations []string `json:"violations,omitempty"`
}

// fedQueryPool returns the drill workload: a cross-shard recombining
// aggregation, a boundary-spanning region acquisition and a sub-epoch
// aggregation, so the merge, translation and watermark paths all stay hot.
func fedQueryPool(shards, side int) []query.Query {
	spn := side*side - 1
	lo, hi := spn, spn+1 // straddle the shard-0/shard-1 boundary
	if shards == 1 {
		lo, hi = 1, spn
	}
	return []query.Query{
		query.MustParse("SELECT MAX(light), AVG(light) EPOCH DURATION 8192"),
		query.MustParse(fmt.Sprintf("SELECT nodeid, light WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION 8192", lo, hi)),
		query.MustParse("SELECT MIN(temp), COUNT(temp) EPOCH DURATION 4096"),
	}
}

// RunFederationScenario drives a router fleet through one federation
// drill in phased rounds (stage, advance, drain, check), injecting the
// shard fault at a round boundary without draining first — whatever the
// fault strands in flight must come back through the watermark and resume
// machinery, which is the redelivery guarantee under test.
func RunFederationScenario(cfg FedRunConfig) (*FedReport, error) {
	found := false
	for _, n := range FedScenarioNames() {
		if cfg.Scenario == n {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("chaos: unknown federation scenario %q", cfg.Scenario)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultFedShards
	}
	if cfg.Side <= 0 {
		cfg.Side = DefaultFedSide
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
	kill := cfg.Scenario == "kill-a-shard"
	if kill && cfg.WALDir == "" {
		return nil, fmt.Errorf("chaos: kill-a-shard needs a WAL directory (FedRunConfig.WALDir)")
	}

	baseline := runtime.NumGoroutine()
	rt, err := federation.New(federation.Config{
		Shards: cfg.Shards,
		Side:   cfg.Side,
		Seed:   cfg.Seed,
		WALDir: cfg.WALDir,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	rep := &FedReport{
		Scenario: cfg.Scenario,
		Seed:     cfg.Seed,
		Shards:   cfg.Shards,
		Clients:  cfg.Clients,
		Rounds:   cfg.Rounds,
	}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// Register every session and stage the workload up front; the drill
	// measures steady-state streams through the fault, not churn.
	pool := fedQueryPool(cfg.Shards, cfg.Side)
	check := NewStreamChecker()
	var subs []*federation.Sub
	var tickets []*federation.Ticket
	for c := 0; c < cfg.Clients; c++ {
		sess, err := rt.Register(fmt.Sprintf("chaos-%d", c))
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
	if _, err := rt.Advance(cfg.Quantum); err != nil {
		return nil, err
	}
	for _, tk := range tickets {
		sub, err := tk.Wait()
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}

	// The victim is never shard 0 so some sessions always stay homed on a
	// healthy shard.
	victim := cfg.Shards - 1
	drainOne := func(sub *federation.Sub) {
		for {
			select {
			case u, ok := <-sub.Updates():
				if !ok {
					violate("stream %d closed mid-run (%s)", sub.ID(), sub.Reason())
					return
				}
				check.Observe(u)
			default:
				return
			}
		}
	}
	drainAll := func() {
		for _, sub := range subs {
			drainOne(sub)
		}
	}

	for round := 1; round < cfg.Rounds; round++ {
		if round == fedFaultRound {
			rep.UpdatesAtFault = check.Updates
			if kill {
				if err := rt.CrashShard(victim); err != nil {
					return nil, err
				}
			} else {
				if err := rt.PartitionShard(victim); err != nil {
					return nil, err
				}
			}
		}
		if round == fedClearRound {
			if kill {
				if err := rt.RecoverShard(victim); err != nil {
					return nil, err
				}
			} else {
				if err := rt.HealShard(victim); err != nil {
					return nil, err
				}
			}
		}
		if _, err := rt.Advance(cfg.Quantum); err != nil {
			return nil, err
		}
		drainAll()
	}

	rep.Stats = rt.FedStats()
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
	if rep.UpdatesAtFault == 0 {
		violate("no deliveries before the fault round")
	}
	if rep.Updates <= rep.UpdatesAtFault {
		violate("no progress after the fault cleared (%d then, %d now)", rep.UpdatesAtFault, rep.Updates)
	}
	for i := 0; i < cfg.Shards; i++ {
		if !rt.ShardAlive(i) {
			violate("shard %d not alive at end of run", i)
		}
	}
	if kill {
		if rep.Stats.ShardCrashes != 1 || rep.Stats.ShardRecoveries != 1 {
			violate("crash/recovery cycle = %d/%d, want 1/1", rep.Stats.ShardCrashes, rep.Stats.ShardRecoveries)
		}
	} else {
		if rep.Stats.Partitions != 1 || rep.Stats.Heals != 1 {
			violate("partition/heal cycle = %d/%d, want 1/1", rep.Stats.Partitions, rep.Stats.Heals)
		}
	}
	if rep.Stats.UpstreamResumes == 0 {
		violate("fault cleared without resuming any upstream stream")
	}

	if err := rt.Close(); err != nil && err != gateway.ErrClosed {
		violate("router close: %v", err)
	}
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		violate("%v", err)
	}
	sort.Strings(rep.Violations)
	return rep, nil
}
