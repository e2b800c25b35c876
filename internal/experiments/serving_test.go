package experiments

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestServingStudyCellsPassDrillChecks runs every share and federation cell
// at seed 1 as the drill it is: each must deliver every stream without a
// duplicate, gap or ordering violation, leave no goroutine behind, and
// report the updates its row publishes.
func TestServingStudyCellsPassDrillChecks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	share, err := RunShareStudy(ShareStudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := RunFederationScaling(FederationScalingConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(cell string, rep *chaos.Report, err error, updates int64) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if rep.Duplicates != 0 || rep.Gaps != 0 || rep.OrderViolations != 0 {
			t.Errorf("%s: duplicates=%d gaps=%d order=%d, want none", cell, rep.Duplicates, rep.Gaps, rep.OrderViolations)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", cell, v)
		}
		if rep.Updates == 0 || rep.Updates != updates {
			t.Errorf("%s: drill delivered %d updates, row reports %d", cell, rep.Updates, updates)
		}
	}
	for _, row := range share {
		rep, err := chaos.ShareCell(1, row.Overlap, row.Sharing)
		check(fmt.Sprintf("share overlap %.2f sharing %v", row.Overlap, row.Sharing), rep, err, row.Updates)
	}
	for _, row := range fed {
		rep, err := chaos.FederationCell(1, row.Shards)
		check(fmt.Sprintf("federation %d shards", row.Shards), rep, err, row.Updates)
	}
	if err := chaos.CheckGoroutines(baseline, 2*time.Second); err != nil {
		t.Error(err)
	}
}

// TestStudyViolationsFailTheCell: a drill report with violations is an
// error that lists them.
func TestStudyViolationsFailTheCell(t *testing.T) {
	if err := violations(&chaos.Report{}); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	err := violations(&chaos.Report{Violations: []string{"duplicates: 1 update(s) delivered twice", "gaps: 2"}})
	if want := "2 violation(s): duplicates: 1 update(s) delivered twice; gaps: 2"; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}
