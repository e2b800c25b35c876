package network

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// fullFinalMetrics fills every field with a distinct non-zero value so a
// round trip that silently drops a field cannot pass.
func fullFinalMetrics() FinalMetrics {
	return FinalMetrics{
		SimulatedMS:     60000,
		AvgTxPct:        1.25,
		Messages:        100,
		Retransmissions: 7,
		Dropped:         3,
		Clipped:         2,
		Bytes:           4096,
		ByKind:          map[string]int{"query": 10, "result": 90},
		LatencyMeanMS:   120.5,
		LatencyMaxMS:    900.25,
		LatencyCount:    42,
		Nodes: []NodeMetrics{
			{ID: 1, TxMS: 10.5, RxMS: 20.25, Samples: 60, EnergyJ: 1.5},
		},
	}
}

func TestManifestHash(t *testing.T) {
	m := NewManifest("figure 3")
	m.Seed = 1
	m.DurationMS = 600_000
	h1 := m.Hashed()
	if h1.ConfigHash == "" || len(h1.ConfigHash) != 16 {
		t.Fatalf("hash = %q", h1.ConfigHash)
	}
	if h2 := m.Hashed(); h2 != h1 {
		t.Fatal("hashing is not deterministic")
	}
	m.Seed = 2
	if m.Hashed().ConfigHash == h1.ConfigHash {
		t.Fatal("different configs must hash differently")
	}
	// The hash field itself does not feed the hash: re-hashing a hashed
	// manifest is stable.
	if h1.Hashed() != h1 {
		t.Fatal("re-hashing changed the manifest")
	}
}

func TestManifestJSONRoundTrip(t *testing.T) {
	m := NewManifest("scaling")
	m.Scheme = "ttmqo"
	m.Seed = 7
	m.Nodes = 64
	m.Workload = "C"
	m.Alpha = 0.6
	m.DurationMS = 120_000
	m.Runs = 3
	m = m.Hashed()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Fatal("JSON export must end with a newline")
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != m {
		t.Fatalf("round trip changed manifest:\n  out: %+v\n  back: %+v", m, back)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	v := RunExport{
		Manifest: NewManifest("x").Hashed(),
		Metrics: FinalMetrics{ByKind: map[string]int{
			"b": 2, "a": 1, "c": 3, // map keys must serialize sorted
		}},
	}
	var a, b bytes.Buffer
	if err := WriteJSON(&a, v); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical values must export identical bytes")
	}
	if !strings.Contains(a.String(), `"a": 1,`) {
		t.Fatalf("map keys not sorted: %s", a.String())
	}
}

// TestFinalMetricsRoundTrip pins the JSON export: every field survives a
// marshal/unmarshal cycle byte-exactly.
func TestFinalMetricsRoundTrip(t *testing.T) {
	want := fullFinalMetrics()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	var got FinalMetrics
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", got, want)
	}
}

// TestFinalMetricsFieldSet pins the exported key set. A renamed or
// dropped JSON tag (especially the loss-accounting trio retransmissions /
// dropped / clipped) fails here rather than silently changing the export
// schema downstream consumers parse.
func TestFinalMetricsFieldSet(t *testing.T) {
	data, err := json.Marshal(fullFinalMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"simulated_ms", "avg_tx_pct", "messages", "retransmissions",
		"dropped", "clipped", "bytes", "by_kind",
		"latency_mean_ms", "latency_max_ms", "latency_count", "nodes",
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("FinalMetrics JSON is missing field %q", k)
		}
	}
	if len(doc) != len(want) {
		t.Errorf("FinalMetrics JSON has %d fields, want %d — update the pinned set: %v", len(doc), len(want), doc)
	}
}

func TestCollectFinal(t *testing.T) {
	c := metrics.NewCollector(3)
	c.AddTxTime(1, 500*time.Millisecond)
	rx := []time.Duration{2: time.Second}
	c.SetRxSource(func(id topology.NodeID) time.Duration { return rx[id] })
	c.CountSamples(1, 4)
	c.CountMessage(metrics.KindResult, 1, 30)
	c.CountMessage(metrics.KindQuery, 0, 20)
	c.CountRetransmission()
	c.AddLatency(250 * time.Millisecond)
	c.AddTxTime(99, time.Second) // clipped

	fm := CollectFinal(c, time.Minute, metrics.DefaultEnergyModel())
	if fm.SimulatedMS != 60_000 || fm.Messages != 2 || fm.Retransmissions != 1 {
		t.Fatalf("basic fields wrong: %+v", fm)
	}
	if fm.Clipped != 1 {
		t.Fatalf("clipped = %d", fm.Clipped)
	}
	if fm.ByKind["result"] != 1 || fm.ByKind["query"] != 1 {
		t.Fatalf("by kind = %v", fm.ByKind)
	}
	if fm.LatencyCount != 1 || fm.LatencyMeanMS != 250 {
		t.Fatalf("latency = %+v", fm)
	}
	if len(fm.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(fm.Nodes))
	}
	if fm.Nodes[1].TxMS != 500 || fm.Nodes[1].Samples != 4 || fm.Nodes[1].EnergyJ == 0 {
		t.Fatalf("node 1 = %+v", fm.Nodes[1])
	}
	if fm.Nodes[2].RxMS != 1000 {
		t.Fatalf("node 2 = %+v", fm.Nodes[2])
	}
	// JSON round trip of the full run envelope.
	re := RunExport{
		Manifest:  NewManifest("").Hashed(),
		Metrics:   fm,
		Optimizer: &OptimizerState{UserQueries: 2, SyntheticQueries: 1},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, re); err != nil {
		t.Fatal(err)
	}
	var back RunExport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, re) {
		t.Fatalf("run export round trip changed:\n  out: %+v\n  back: %+v", re, back)
	}
}

// TestRunExportSpansRoundTrip: the spans block survives the envelope.
func TestRunExportSpansRoundTrip(t *testing.T) {
	exp := RunExport{
		Manifest: NewManifest("unit").Hashed(),
		Metrics:  fullFinalMetrics(),
		Spans: &tracing.SpanSummary{Queries: 4, Flooded: 3, FirstResults: 4,
			Injected: 5, TTFRMeanMS: 1500, TTFRP50MS: 1400, TTFRP95MS: 2000, TTFRMaxMS: 2100},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, exp); err != nil {
		t.Fatal(err)
	}
	var got RunExport
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Spans, exp.Spans) {
		t.Fatalf("spans round trip:\n got %+v\nwant %+v", got.Spans, exp.Spans)
	}
	if !strings.Contains(buf.String(), `"ttfr_mean_ms"`) {
		t.Fatal("export JSON lacks ttfr_mean_ms")
	}
}
