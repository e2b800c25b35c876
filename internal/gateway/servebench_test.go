package gateway

import (
	"strings"
	"testing"
)

// TestServeBenchReportShape runs the suite (testing.Benchmark self-tunes,
// so this takes a few seconds) and checks the acceptance-bar properties:
// binary at least 5x faster than JSON on the fan-out path, and at most 2
// heap allocations per delivered message.
func TestServeBenchReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("serve bench suite is slow; skipped in -short")
	}
	rep, err := RunServeBench(ServeBenchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"encode/binary", "encode/json", "fanout/binary", "fanout/json",
		"fanout/traced", "fanout/burst", "fanout/round", "wal/binary", "wal/json", "dedup/interned",
		"dedup/string", "overload/first-result-unloaded", "overload/p99-under-herd"}
	if len(rep.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rep.Rows), len(want))
	}
	for i, name := range want {
		if rep.Rows[i].Name != name {
			t.Fatalf("row %d = %q, want %q", i, rep.Rows[i].Name, name)
		}
		if rep.Rows[i].NsPerOp <= 0 {
			t.Fatalf("row %q has non-positive ns/op", name)
		}
	}
	if rep.BinarySpeedup < 5 {
		t.Errorf("binary speedup %.2fx, acceptance bar is 5x", rep.BinarySpeedup)
	}
	if rep.AllocsPerMessage > 2 {
		t.Errorf("allocs per delivered message %.2f, acceptance bar is 2", rep.AllocsPerMessage)
	}
	// Flush batching: a burst of burstN same-round updates must hit the
	// connection as ~one write, not one per update.
	if rep.FlushesPerBurst <= 0 || rep.FlushesPerBurst > 1.5 {
		t.Errorf("flushes per %d-update burst = %.2f, want ~1", burstN, rep.FlushesPerBurst)
	}
	// Overload: shedding must cost the herd's tail some rounds (ratio > 1)
	// but stay within the acceptance bar of 4x the unloaded latency.
	if rep.OverloadP99Ratio <= 1 || rep.OverloadP99Ratio > 4 {
		t.Errorf("overload p99 ratio = %.2fx, want in (1, 4]", rep.OverloadP99Ratio)
	}
	// Tracing: stamping trace trailers may cost at most 5% fan-out
	// throughput and zero extra allocations per delivered message. Race
	// instrumentation adds per-op overhead that distorts the fine-grained
	// ratio, so the 5% bound (and the self-comparison that re-checks it)
	// only holds in a non-race build; CI's bench-check gate runs without
	// race.
	maxTracing := 1.05
	if raceEnabled {
		maxTracing = 1.5
	}
	if rep.TracingOverheadRatio <= 0 || rep.TracingOverheadRatio > maxTracing {
		t.Errorf("tracing overhead ratio = %.3fx, want in (0, %.2f]", rep.TracingOverheadRatio, maxTracing)
	}
	if rep.TracedAllocsPerMessage > rep.AllocsPerMessage+0.1 {
		t.Errorf("traced allocs/message %.2f exceeds untraced %.2f",
			rep.TracedAllocsPerMessage, rep.AllocsPerMessage)
	}
	// Self-comparison passes the gate.
	if !raceEnabled {
		if bad := CompareServeBench(rep, rep, 0.10); len(bad) != 0 {
			t.Fatalf("report fails comparison against itself: %v", bad)
		}
	}
	if s := rep.String(); !strings.Contains(s, "fanout/binary") {
		t.Fatalf("String() missing rows:\n%s", s)
	}
}

// TestCompareServeBenchCatchesRegressions doctors a current report in each
// gated dimension and checks the comparator flags it — the property the CI
// gate depends on.
func TestCompareServeBenchCatchesRegressions(t *testing.T) {
	baseline := &ServeBenchReport{
		Rows: []ServeBenchRow{
			{Name: "encode/binary", NsPerOp: 1000, AllocsPerOp: 0},
			{Name: "encode/json", NsPerOp: 9000, AllocsPerOp: 40},
			{Name: "fanout/binary", NsPerOp: 2000, AllocsPerOp: 0, MsgsPerSec: 4e6},
			{Name: "fanout/json", NsPerOp: 20000, AllocsPerOp: 300, MsgsPerSec: 4e5},
		},
		BinarySpeedup:    10,
		AllocsPerMessage: 0,
	}
	clone := func() *ServeBenchReport {
		c := *baseline
		c.Rows = append([]ServeBenchRow(nil), baseline.Rows...)
		return &c
	}

	if bad := CompareServeBench(baseline, clone(), 0.10); len(bad) != 0 {
		t.Fatalf("identical reports flagged: %v", bad)
	}

	// Within tolerance: 8% speedup loss passes a 10% gate.
	ok := clone()
	ok.BinarySpeedup = 9.2
	if bad := CompareServeBench(baseline, ok, 0.10); len(bad) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", bad)
	}

	// Throughput regression: speedup collapses below baseline*(1-tol).
	slow := clone()
	slow.BinarySpeedup = 6
	bad := CompareServeBench(baseline, slow, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "binary_speedup") {
		t.Fatalf("speedup regression not flagged correctly: %v", bad)
	}

	// Allocation regression per message: 1 alloc/msg over a 0 baseline is
	// beyond the half-allocation slack.
	leaky := clone()
	leaky.AllocsPerMessage = 1
	bad = CompareServeBench(baseline, leaky, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "allocs_per_message") {
		t.Fatalf("allocs/message regression not flagged correctly: %v", bad)
	}

	// Absolute bound: even a baseline that itself regressed doesn't excuse
	// exceeding 2 allocs per delivered message.
	badBase := clone()
	badBase.AllocsPerMessage = 3
	worse := clone()
	worse.AllocsPerMessage = 3
	bad = CompareServeBench(badBase, worse, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "absolute bound") {
		t.Fatalf("absolute allocs bound not enforced: %v", bad)
	}

	// Per-row allocation regression on a binary row.
	rowLeak := clone()
	rowLeak.Rows[2].AllocsPerOp = 8
	bad = CompareServeBench(baseline, rowLeak, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "fanout/binary allocs/op") {
		t.Fatalf("per-row allocs regression not flagged correctly: %v", bad)
	}

	// JSON rows are comparison context, not gated.
	jsonDrift := clone()
	jsonDrift.Rows[3].AllocsPerOp = 9000
	if bad := CompareServeBench(baseline, jsonDrift, 0.10); len(bad) != 0 {
		t.Fatalf("non-binary row drift flagged: %v", bad)
	}

	// Overload starvation: the herd's p99 blowing past 4x the unloaded
	// first-result latency trips the absolute gate even though the
	// baseline predates the gauge.
	starved := clone()
	starved.OverloadP99Ratio = 7
	bad = CompareServeBench(baseline, starved, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "overload_p99_ratio") {
		t.Fatalf("overload starvation not flagged correctly: %v", bad)
	}

	// Tracing cost blowing past 5% of untraced fan-out throughput trips
	// the absolute gate even against a pre-tracing baseline.
	costly := clone()
	costly.TracingOverheadRatio = 1.2
	bad = CompareServeBench(baseline, costly, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "tracing_overhead_ratio") {
		t.Fatalf("tracing overhead regression not flagged correctly: %v", bad)
	}

	// The trace trailer allocating (traced path above the untraced one)
	// trips its own gate.
	tracedLeak := clone()
	tracedLeak.TracingOverheadRatio = 1.0
	tracedLeak.TracedAllocsPerMessage = 1
	bad = CompareServeBench(baseline, tracedLeak, 0.10)
	if len(bad) != 1 || !strings.Contains(bad[0], "traced_allocs_per_message") {
		t.Fatalf("traced allocation regression not flagged correctly: %v", bad)
	}

	// Rows new in current (no baseline entry) pass through ungated.
	grown := clone()
	grown.Rows = append(grown.Rows, ServeBenchRow{Name: "netload/binary", MsgsPerSec: 1e5})
	if bad := CompareServeBench(baseline, grown, 0.10); len(bad) != 0 {
		t.Fatalf("new row flagged: %v", bad)
	}
}
