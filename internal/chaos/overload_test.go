package chaos

import (
	"testing"
)

// TestOverloadStuckShard wedges a shard without crashing it and asserts
// the breaker/degraded-coverage invariants end to end: trip, failed
// probe, recovery, epochs released at partial coverage throughout (no
// watermark deadlock), full coverage restored after the probe.
func TestOverloadStuckShard(t *testing.T) {
	rep, err := Run("stuck-shard", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Router.BreakerTrips == 0 || rep.Router.BreakerRecoveries == 0 {
		t.Fatalf("breaker never cycled: trips=%d recoveries=%d",
			rep.Router.BreakerTrips, rep.Router.BreakerRecoveries)
	}
}

// TestOverloadHerd fires the thundering herd at a tiny admission bound
// and asserts bounded mailbox depth, honored retry-after floors and
// exactly-once admission through the backoff re-subscribes.
func TestOverloadHerd(t *testing.T) {
	rep, err := Run("thundering-herd", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.Sheds == 0 {
		t.Fatal("herd was never shed; drill is vacuous")
	}
}

// TestOverloadSlowLoris opens a subscriber that stops reading and
// asserts the server drops it while the healthy streams progress.
func TestOverloadSlowLoris(t *testing.T) {
	rep, err := Run("slow-loris", Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if !rep.VictimDropped {
		t.Fatal("loris connection was never severed")
	}
}

// TestOverloadChaosSoak reruns the overload drills across seeds; it
// rides `make chaos-soak` next to the fault-injection soaks.
func TestOverloadChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := Run("stuck-shard", Config{Seed: seed})
		if err != nil {
			t.Fatalf("stuck-shard seed=%d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("stuck-shard seed=%d violation: %s", seed, v)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		rep, err := Run("thundering-herd", Config{Seed: seed})
		if err != nil {
			t.Fatalf("thundering-herd seed=%d: %v", seed, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("thundering-herd seed=%d violation: %s", seed, v)
		}
	}
	rep, err := Run("slow-loris", Config{Seed: 2})
	if err != nil {
		t.Fatalf("slow-loris: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("slow-loris violation: %s", v)
	}
}
