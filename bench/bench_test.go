package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gateway"
)

// smokeOptions runs each workload at about 1/200 of its reference rounds
// (one block per run).
func smokeOptions(t *testing.T) options {
	return options{seed: 1, scale: 1.0 / 200, e2e: true, layers: true, setups: 1,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
}

// TestSmoke runs all four workloads twice, short: every named metric is
// present and finite, nothing fails, the traced run reproduces the
// untraced slice's fingerprint (runWorkload counts a mismatch as a
// failure), and exact metrics and fingerprints repeat across the two runs.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			o := smokeOptions(t)
			var runs [2]*workloadResult
			for i := range runs {
				w, err := runWorkload(s, o)
				if err != nil {
					t.Fatal(err)
				}
				if !w.Correct || w.Failed != 0 || w.FailRatio != 0 {
					t.Fatalf("run %d: %d failed of %d: %s", i, w.Failed, w.Attempted, w.Detail)
				}
				if w.Attempted < 1 {
					t.Fatalf("run %d: attempted %d", i, w.Attempted)
				}
				for _, tab := range []struct {
					defs []metricDef
					vals map[string]float64
				}{{endToEnd, w.EndToEnd}, {perLayer, w.PerLayer}} {
					for _, d := range tab.defs {
						v, ok := tab.vals[d.Name]
						if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("run %d: metric %s = %v (present %v)", i, d.Name, v, ok)
						}
					}
				}
				for _, d := range endToEnd {
					if w.EndToEnd[d.Name] <= 0 {
						t.Errorf("run %d: end-to-end metric %s = %v, want > 0", i, d.Name, w.EndToEnd[d.Name])
					}
				}
				if _, err := os.Stat(o.traceOut); err != nil {
					t.Errorf("run %d: trace not written: %v", i, err)
				}
				runs[i] = w
			}
			a, b := runs[0], runs[1]
			if a.Fingerprint != b.Fingerprint || a.TraceFingerprint != b.TraceFingerprint {
				t.Errorf("fingerprints differ between runs: %s/%s vs %s/%s",
					a.Fingerprint, a.TraceFingerprint, b.Fingerprint, b.TraceFingerprint)
			}
			for _, d := range endToEnd {
				if d.Exact && a.EndToEnd[d.Name] != b.EndToEnd[d.Name] {
					t.Errorf("exact metric %s: %v vs %v", d.Name, a.EndToEnd[d.Name], b.EndToEnd[d.Name])
				}
			}
			for _, d := range perLayer {
				if d.Exact && a.PerLayer[d.Name] != b.PerLayer[d.Name] {
					t.Errorf("exact metric %s: %v vs %v", d.Name, a.PerLayer[d.Name], b.PerLayer[d.Name])
				}
			}
		})
	}
}

func aggFrame(seq uint64, at int64, sum, cnt, avg float64) *gateway.Response {
	return &gateway.Response{Type: gateway.TypeAgg, Seq: seq, AtMS: at, Aggs: []gateway.WireAgg{
		{Agg: "SUM(light)", Value: sum}, {Agg: "COUNT(light)", Value: cnt}, {Agg: "AVG(light)", Value: avg},
	}}
}

// TestCheckerCatches feeds the checker a good stream, then a dropped
// frame, a perturbed value and broken aggregate identities: each must be
// counted, and a perturbed value must change the fingerprint.
func TestCheckerCatches(t *testing.T) {
	meta := queryMeta{epochMS: 2048, region: 8}
	newSub := func(g *canonGroup, ordinal uint64) *subCheck {
		return &subCheck{ordinal: ordinal, meta: meta, group: g}
	}

	var f failures
	g := &canonGroup{}
	a, b := newSub(g, 1), newSub(g, 2)
	for seq := uint64(1); seq <= 3; seq++ {
		at := int64(seq) * 2048
		a.observe(aggFrame(seq, at, 40, 8, 5), &f)
		b.observe(aggFrame(seq, at, 40, 8, 5), &f)
	}
	// One ulp apart is the same answer (recombination order).
	b.observe(aggFrame(4, 4*2048, 40, 8, 5), &f)
	a.observe(aggFrame(4, 4*2048, math.Nextafter(40, 41), 8, 5), &f)
	if f.total() != 0 {
		t.Fatalf("clean stream counted failures: %s", f.String())
	}

	a.observe(aggFrame(6, 6*2048, 40, 8, 5), &f) // seq 5 dropped
	if f.seqGaps.Load() != 1 {
		t.Errorf("dropped frame not caught: %s", f.String())
	}

	good := b.observe(aggFrame(5, 7*2048, 40, 8, 5), &f)
	a.observe(aggFrame(7, 7*2048, 41, 8, 5.125), &f) // same epoch, different values
	if f.diverged.Load() != 1 {
		t.Errorf("perturbed value not caught: %s", f.String())
	}
	c := newSub(&canonGroup{}, 2)
	c.lastSeq = 4
	if bad := c.observe(aggFrame(5, 7*2048, 41, 8, 5.125), &f); bad == good {
		t.Errorf("perturbed value left the fingerprint unchanged")
	}

	var f2 failures
	d := newSub(&canonGroup{}, 3)
	d.observe(aggFrame(1, 2048, 40, 8, 6), &f2)     // AVG*COUNT != SUM
	d.observe(aggFrame(2, 4096, 45, 9, 5), &f2)     // COUNT above the region size
	d.observe(aggFrame(3, 4096, 40, 8, 5), &f2)     // at_ms did not advance
	d.observe(aggFrame(4, 3*2048+1, 40, 8, 5), &f2) // off the epoch grid
	if f2.aggIdentity.Load() != 1 || f2.countBound.Load() != 1 || f2.atOrder.Load() != 1 || f2.atEpoch.Load() != 1 {
		t.Errorf("identity checks: %s", f2.String())
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.1}
	higher := metricDef{Better: "higher", Bound: 0.1}
	exact := metricDef{Better: "lower", Bound: 0.1, Exact: true}
	for _, tc := range []struct {
		d        metricDef
		a, b     float64
		sameWork bool
		want     string
	}{
		{lower, 100, 109, false, "PASS"},
		{lower, 100, 111, false, "REGRESSED"},
		{lower, 100, 50, false, "PASS"},
		{higher, 100, 92, false, "PASS"},
		{higher, 100, 90, false, "REGRESSED"},
		{exact, 7, 7, true, "EXACT"},
		{exact, 7, 7.000001, true, "EXACT-MISMATCH"},
		{exact, 100, 105, false, "PASS"},
	} {
		if got := verdict(tc.d, tc.a, tc.b, tc.sameWork); got != tc.want {
			t.Errorf("verdict(%+v, %v, %v, %v) = %s, want %s", tc.d, tc.a, tc.b, tc.sameWork, got, tc.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if doc.Workloads[i].Name != s.name || doc.Workloads[i].Why != s.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters", s.name, len(s.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s[%d] %s: bound mismatch", kind, i, d.Name)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
