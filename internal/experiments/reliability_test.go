package experiments

import (
	"testing"
	"time"

	"repro/internal/network"
)

func TestReliabilityShapes(t *testing.T) {
	rows, err := RunReliability(ReliabilityConfig{
		Seed:     1,
		Side:     4,
		Duration: 4 * time.Minute,
		MTBFs:    []time.Duration{0, 2 * time.Minute, 45 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]ReliabilityRow)
	for _, r := range rows {
		byKey[r.Scheme.String()+r.MTBF.String()] = r
	}
	for _, scheme := range []network.Scheme{network.Baseline, network.TTMQO} {
		healthy := byKey[scheme.String()+time.Duration(0).String()]
		// No failures: near-perfect completeness.
		if healthy.Completeness < 0.97 {
			t.Errorf("%v healthy completeness = %.3f, want ≥ 0.97", scheme, healthy.Completeness)
		}
		if healthy.Failures != 0 {
			t.Errorf("%v healthy run had %d failures", scheme, healthy.Failures)
		}
		// Heavier failure rates degrade completeness but not catastrophically.
		stressed := byKey[scheme.String()+(45*time.Second).String()]
		if stressed.Failures == 0 {
			t.Errorf("%v stressed run had no failures", scheme)
		}
		if stressed.Completeness >= healthy.Completeness {
			t.Errorf("%v: failures should cost completeness: %.3f vs %.3f",
				scheme, stressed.Completeness, healthy.Completeness)
		}
		if stressed.Completeness < 0.5 {
			t.Errorf("%v stressed completeness = %.3f — failover not working?",
				scheme, stressed.Completeness)
		}
	}
	// The optimized scheme must not be clearly more fragile than the
	// baseline under the same failure process.
	bs := byKey[network.Baseline.String()+(2*time.Minute).String()]
	tt := byKey[network.TTMQO.String()+(2*time.Minute).String()]
	if tt.Completeness < bs.Completeness-0.15 {
		t.Errorf("TTMQO far more fragile than baseline: %.3f vs %.3f",
			tt.Completeness, bs.Completeness)
	}
	if s := textOf(t, "reliability", rows); s == "" {
		t.Error("empty render")
	}
}
