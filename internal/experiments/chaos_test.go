package experiments

import (
	"encoding/json"
	"testing"
)

// TestChaosStudyInvariants: every builtin scenario must run clean — zero
// duplicates everywhere, zero gaps, no invariant violations — while the
// fault scenarios still visibly bite (crash cycles happen, completeness
// dips under churn).
func TestChaosStudyInvariants(t *testing.T) {
	rows, err := RunChaos(ChaosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	var crashes int
	for _, r := range rows {
		if len(r.Violations) != 0 {
			t.Errorf("%s: violations %v", r.Scenario, r.Violations)
		}
		if r.Duplicates != 0 || r.Gaps != 0 {
			t.Errorf("%s: duplicates=%d gaps=%d", r.Scenario, r.Duplicates, r.Gaps)
		}
		if r.Updates == 0 {
			t.Errorf("%s: no deliveries", r.Scenario)
		}
		crashes += r.Crashes
	}
	if crashes == 0 {
		t.Fatal("no scenario crashed the gateway; the study is not exercising recovery")
	}
	if s := textOf(t, "chaos", rows); len(s) == 0 {
		t.Fatal("empty table")
	}
}

// TestChaosStudyDeterministicAcrossParallelism is the determinism
// acceptance criterion: the same scenarios and seed must yield
// byte-identical JSON rows at 1 worker and at 8.
func TestChaosStudyDeterministicAcrossParallelism(t *testing.T) {
	one, err := RunChaos(ChaosConfig{Seed: 2, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunChaos(ChaosConfig{Seed: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(one)
	jb, _ := json.Marshal(eight)
	if string(ja) != string(jb) {
		t.Fatalf("chaos study diverged across parallelism:\n1 worker: %s\n8 workers: %s", ja, jb)
	}
}
