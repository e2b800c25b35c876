package chaos

import (
	"testing"
)

// TestFederationScenarioValidation covers the config guard rails.
func TestFederationScenarioValidation(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Run("kill-a-shard", Config{}); err == nil {
		t.Fatal("kill-a-shard ran without a WAL directory")
	}
}

// TestFederationKillAShard crashes a shard mid-stream, recovers it from
// its WAL and asserts the downstream delivery invariants held throughout.
func TestFederationKillAShard(t *testing.T) {
	rep, err := Run("kill-a-shard", Config{Seed: 7, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Router.ShardCrashes != 1 || rep.Router.ShardRecoveries != 1 {
		t.Fatalf("crash/recovery = %d/%d, want 1/1", rep.Router.ShardCrashes, rep.Router.ShardRecoveries)
	}
	if rep.Updates <= rep.UpdatesAtFault {
		t.Fatalf("no post-recovery progress: %d at fault, %d final", rep.UpdatesAtFault, rep.Updates)
	}
	if rep.Duplicates != 0 || rep.Gaps != 0 || rep.OrderViolations != 0 {
		t.Fatalf("delivery invariants broken: dup=%d gaps=%d order=%d",
			rep.Duplicates, rep.Gaps, rep.OrderViolations)
	}
}

// TestFederationPartitionTheRouter cuts the router off from a live shard,
// heals the link and asserts the parked tail replays without loss.
func TestFederationPartitionTheRouter(t *testing.T) {
	rep, err := Run("partition-the-router", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Router.Partitions != 1 || rep.Router.Heals != 1 {
		t.Fatalf("partition/heal = %d/%d, want 1/1", rep.Router.Partitions, rep.Router.Heals)
	}
}

// TestFederationChaosSoak reruns both drills across seeds; it rides the
// `make chaos-soak` target next to the single-gateway soak.
func TestFederationChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short mode")
	}
	for _, scenario := range []string{"kill-a-shard", "partition-the-router"} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := Config{Seed: seed}
			if scenario == "kill-a-shard" {
				cfg.WALDir = t.TempDir()
			}
			rep, err := Run(scenario, cfg)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", scenario, seed, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s seed=%d violation: %s", scenario, seed, v)
			}
		}
	}
}
