package gateway

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// metricsRun drives a seeded 4x4 gateway with a registry attached through
// eight rounds of Advance: sixteen sessions subscribe to eight §4.3 random
// queries in round 0, so semantic dedup is in play. With crash > 0 the
// gateway is crashed at the start of that round — right after mid saw the
// exposition of its last live snapshot — and recovered from its WAL. It
// returns the final exposition.
func metricsRun(t *testing.T, seed int64, crash int, mid func(string)) string {
	topo, _ := topology.PaperGrid(4)
	cfg := Config{Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: seed}, WALPath: filepath.Join(t.TempDir(), "gw.wal")}
	var cur atomic.Pointer[Gateway]
	reg := telemetry.NewRegistry()
	RegisterMetrics(reg, cur.Load)
	gw, err := New(cfg)
	cur.Store(gw)
	pool := workload.Random(workload.RandomConfig{Seed: seed, NumQueries: 8})
	for i := 0; i < 16 && err == nil; i++ {
		var sess *Session
		if sess, err = gw.Register(fmt.Sprintf("c%02d", i)); err == nil {
			_, err = sess.SubscribeAsync(SubscribeRequest{Query: pool[i%len(pool)].Query})
		}
	}
	for round := 0; round < 8 && err == nil; round++ {
		if _, err = gw.Advance(8192 * time.Millisecond); err == nil && round+1 == crash {
			mid(reg.Exposition())
			if err = gw.Crash(); err == nil {
				gw, err = Recover(cfg)
				cur.Store(gw)
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	return reg.Exposition()
}

// TestRegisterMetricsDeterministic: the full Prometheus exposition of a
// seeded run is byte-identical across runs — the registry carries no
// wall-clock state, so the serving tier's metrics inherit the repository's
// determinism guarantee.
func TestRegisterMetricsDeterministic(t *testing.T) {
	a := metricsRun(t, 42, 0, nil)
	b := metricsRun(t, 42, 0, nil)
	if a != b {
		t.Fatalf("same seed, different expositions:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	samples, err := telemetry.ParseExposition(a)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, name := range []string{
		"ttmqo_gateway_admitted_total",
		"ttmqo_gateway_dedup_hits_total",
		"ttmqo_wal_appends_total",
		"ttmqo_wal_size_bytes",
		"ttmqo_radio_messages_total",
		"ttmqo_radio_bytes_total",
		"ttmqo_energy_total_joules",
		"ttmqo_sim_virtual_time_seconds",
		"ttmqo_query_time_to_first_result_seconds_count",
		"ttmqo_query_spans",
	} {
		if _, ok := telemetry.FindSample(samples, name); !ok {
			t.Errorf("exposition lacks %s", name)
		}
	}
	// Per-node energy must be labeled and non-trivial: the 4x4 grid has 16
	// nodes and the relaying ones spent energy.
	var nodes int
	for _, s := range samples {
		if s.Name == "ttmqo_node_energy_joules" {
			nodes++
		}
	}
	if nodes != 16 {
		t.Errorf("ttmqo_node_energy_joules has %d children, want 16", nodes)
	}
	if s, ok := telemetry.FindSample(samples, "ttmqo_gateway_admitted_total"); !ok || s.Value <= 0 {
		t.Errorf("admitted_total = %+v, want > 0", s)
	}
	if s, ok := telemetry.FindSample(samples, "ttmqo_query_time_to_first_result_seconds_count"); !ok || s.Value <= 0 {
		t.Errorf("ttfr count = %+v, want > 0", s)
	}
}

// TestRegisterMetricsSurvivesCrashRecovery: with a mid-run crash the gather
// hook follows the swapped gateway, and the mirrored counters never run
// backwards even though the recovered gateway re-derives its history.
func TestRegisterMetricsSurvivesCrashRecovery(t *testing.T) {
	var midAdmitted float64
	swaps := 0
	final := mustParse(t, metricsRun(t, 7, 4, func(exp string) {
		s, ok := telemetry.FindSample(mustParse(t, exp), "ttmqo_gateway_admitted_total")
		if !ok {
			t.Error("mid-run exposition lacks admitted_total")
		}
		midAdmitted = s.Value
		swaps++
	}))
	if swaps != 1 {
		t.Fatalf("crashed and recovered %d times, want 1", swaps)
	}
	if s, ok := telemetry.FindSample(final, "ttmqo_gateway_recoveries_total"); !ok || s.Value != 1 {
		t.Fatalf("recoveries_total = %+v, want 1", s)
	}
	if s, ok := telemetry.FindSample(final, "ttmqo_gateway_admitted_total"); !ok || s.Value < midAdmitted {
		t.Fatalf("admitted_total regressed across recovery: final %+v < mid %v", s, midAdmitted)
	}
}

func mustParse(t *testing.T, text string) []telemetry.ParsedSample {
	t.Helper()
	samples, err := telemetry.ParseExposition(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	return samples
}

// TestTTFRBoundsAscending pins the histogram's bucket ladder shape.
func TestTTFRBoundsAscending(t *testing.T) {
	for i := 1; i < len(TTFRBounds); i++ {
		if TTFRBounds[i] <= TTFRBounds[i-1] {
			t.Fatalf("TTFRBounds not ascending at %d: %v", i, TTFRBounds)
		}
	}
	// The ladder must be wide enough for epoch-scale first results.
	if TTFRBounds[len(TTFRBounds)-1] < 60 {
		t.Fatalf("TTFRBounds top %v too low for epoch-period TTFRs", TTFRBounds[len(TTFRBounds)-1])
	}
	var sb strings.Builder
	r := telemetry.NewRegistry()
	r.NewHistogram("ttmqo_query_time_to_first_result_seconds", "t", TTFRBounds).Histogram().Observe(3)
	if err := r.WriteExposition(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ParseExposition(sb.String()); err != nil {
		t.Fatalf("TTFR histogram exposition invalid: %v", err)
	}
}
