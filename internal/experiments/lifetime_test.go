package experiments

import (
	"testing"
	"time"

	"repro/internal/network"
)

func TestLifetimeShapes(t *testing.T) {
	rows, err := RunLifetime(LifetimeConfig{Seed: 1, Side: 4, Duration: 4 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	byScheme := make(map[network.Scheme]LifetimeRow, len(rows))
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	base := byScheme[network.Baseline]
	full := byScheme[network.TTMQO]
	if base.TotalJ <= 0 || base.Lifetime <= 0 {
		t.Fatalf("baseline consumed nothing: %+v", base)
	}
	// TTMQO spends less energy and lives longer.
	if full.TotalJ >= base.TotalJ {
		t.Errorf("TTMQO energy %.1fJ >= baseline %.1fJ", full.TotalJ, base.TotalJ)
	}
	if full.Lifetime <= base.Lifetime {
		t.Errorf("TTMQO lifetime %v <= baseline %v", full.Lifetime, base.Lifetime)
	}
	if full.GainPct <= 0 {
		t.Errorf("gain = %.1f%%", full.GainPct)
	}
	if s := textOf(t, "lifetime", rows); s == "" {
		t.Error("empty render")
	}
}
