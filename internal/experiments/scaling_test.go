package experiments

import (
	"testing"
	"time"

	"repro/internal/network"
)

func TestScalingShapes(t *testing.T) {
	rows, err := RunScaling(ScalingConfig{Seed: 1, Sides: []int{4, 8, 10}, Duration: 4 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	base := map[int]ScalingRow{}
	opt := map[int]ScalingRow{}
	for _, r := range rows {
		if r.Scheme == network.Baseline {
			base[r.Nodes] = r
		} else {
			opt[r.Nodes] = r
		}
	}
	// Baseline cost grows with size; TTMQO always cheaper; savings do not
	// collapse as the network grows.
	if !(base[16].AvgTxPct < base[64].AvgTxPct && base[64].AvgTxPct < base[100].AvgTxPct) {
		t.Errorf("baseline not growing: %v %v %v", base[16].AvgTxPct, base[64].AvgTxPct, base[100].AvgTxPct)
	}
	for _, n := range []int{16, 64, 100} {
		if opt[n].AvgTxPct >= base[n].AvgTxPct {
			t.Errorf("%d nodes: TTMQO not cheaper", n)
		}
		if opt[n].SavingsPct < 50 {
			t.Errorf("%d nodes: savings %.1f%% too low", n, opt[n].SavingsPct)
		}
		if opt[n].MeanLatencyMS <= 0 {
			t.Errorf("%d nodes: no latency recorded", n)
		}
	}
	if s := textOf(t, "scaling", rows); s == "" {
		t.Error("empty render")
	}
}
