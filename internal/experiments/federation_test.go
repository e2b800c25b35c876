package experiments

import "testing"

func runFedSweep(t *testing.T) []FederationScalingRow {
	t.Helper()
	rows, err := RunFederationScaling(FederationScalingConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (1, 2, 4 and 8 shards)", len(rows))
	}
	return rows
}

// TestFederationScalingLinear asserts the sweep's structural shape: with
// per-shard load held constant, downstream deliveries, sessions and
// upstream subscriptions all scale exactly with the shard count.
func TestFederationScalingLinear(t *testing.T) {
	rows := runFedSweep(t)
	base := rows[0]
	if base.Updates == 0 || base.Rows == 0 {
		t.Fatalf("single-shard cell delivered nothing: %+v", base)
	}
	if base.Trees != 2 {
		t.Fatalf("single-shard trees = %d, want 2 (region + aggregate)", base.Trees)
	}
	for _, r := range rows[1:] {
		k := int64(r.Shards)
		if r.Sessions != r.Shards*4 || r.Subs != r.Shards*8 {
			t.Errorf("%d shards: sessions/subs = %d/%d, want %d/%d",
				r.Shards, r.Sessions, r.Subs, r.Shards*4, r.Shards*8)
		}
		// One deduped region upstream per shard plus the aggregate's slice
		// on every shard.
		if r.Upstreams != 2*r.Shards {
			t.Errorf("%d shards: upstreams = %d, want %d", r.Shards, r.Upstreams, 2*r.Shards)
		}
		if r.Updates != k*base.Updates {
			t.Errorf("%d shards: updates = %d, want %d (linear in shard count)",
				r.Shards, r.Updates, k*base.Updates)
		}
		if r.Rows != k*base.Rows {
			t.Errorf("%d shards: rows = %d, want %d", r.Shards, r.Rows, k*base.Rows)
		}
	}
}

// TestFederationScalingDeterministic reruns the sweep and asserts every
// row, and so the rendered table, is identical.
func TestFederationScalingDeterministic(t *testing.T) {
	a := runFedSweep(t)
	b := runFedSweep(t)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs between runs:\n first:  %+v\n second: %+v", i, a[i], b[i])
		}
	}
}
