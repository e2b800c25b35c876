package experiments

import (
	"testing"
	"time"
)

func TestAblationShapes(t *testing.T) {
	rows, err := RunAblation(AblationConfig{Seed: 1, Side: 8, Duration: 4 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]AblationRow, len(rows))
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full"]
	if full.AvgTxPct <= 0 {
		t.Fatal("full variant has no traffic")
	}
	// Removing epoch alignment or message packing must cost clearly more
	// traffic; removing the whole tier-2 stack the most.
	for _, name := range []string{"-alignment", "-packing", "tier1-only"} {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing variant %s", name)
		}
		if r.DeltaPct < 5 {
			t.Errorf("%s: expected ≥ +5%% traffic, got %+.1f%%", name, r.DeltaPct)
		}
	}
	// No single mechanism removal should *help* materially (within noise).
	for _, r := range rows {
		if r.Variant == "full" {
			continue
		}
		if r.DeltaPct < -3 {
			t.Errorf("%s: removing a mechanism should not save traffic: %+.1f%%", r.Variant, r.DeltaPct)
		}
	}
}

func TestAblationString(t *testing.T) {
	got := textOf(t, "ablation", []AblationRow{{Variant: "full", AvgTxPct: 0.5}})
	want := "variant        avgTx(%)    vs full  messages\n" +
		"full             0.5000      +0.0%         0\n"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAblationUnknownWorkload(t *testing.T) {
	if _, err := RunAblation(AblationConfig{Workload: "Z"}); err == nil {
		t.Fatal("unknown workload must error")
	}
}
