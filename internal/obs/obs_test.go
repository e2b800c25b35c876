package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/topology"
)

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
	v := Export{
		Manifest: NewManifest("x").Hashed(),
		Studies: []Study{{Name: "s", Rows: []map[string]int{
			{"b": 2, "a": 1, "c": 3}, // map keys must serialize sorted
		}}},
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

func TestSeriesCSVShape(t *testing.T) {
	s := NewSeries(30 * time.Second)
	if s.IntervalMS != 30_000 {
		t.Fatalf("interval = %d", s.IntervalMS)
	}
	s.Append(Sample{AtMS: 0, Completeness: 1})
	s.Append(Sample{
		AtMS: 30_000, Messages: 10, Retransmissions: 1, Dropped: 0, Bytes: 420,
		TxTotalMS: 12.5, RxTotalMS: 80.25, TxMaxMS: 3.125,
		NodeTxMS: []float64{0, 6.25, 6.25}, NodeRxMS: []float64{5, 37.625, 37.625},
		UserQueries: 2, SyntheticQueries: 1, InstalledQueries: 1,
		QueueDepth: 4, EventsFired: 99, RowEpochs: 3, AggEpochs: 1,
		RowsDelivered: 6, Completeness: 1, Clipped: 0,
	})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	for _, row := range lines[1:] {
		if got := len(strings.Split(row, ",")); got != len(header) {
			t.Fatalf("row width %d != header width %d: %q", got, len(header), row)
		}
	}
	if header[0] != "at_ms" || header[len(header)-1] != "clipped" {
		t.Fatalf("header = %v", header)
	}
	if !strings.HasPrefix(lines[2], "30000,10,1,0,420,12.500,80.250,3.125,2,1,1,4,99,3,1,6,1.000000,0") {
		t.Fatalf("row = %q", lines[2])
	}

	var nodeBuf bytes.Buffer
	if err := s.WriteNodeCSV(&nodeBuf); err != nil {
		t.Fatal(err)
	}
	nodeLines := strings.Split(strings.TrimRight(nodeBuf.String(), "\n"), "\n")
	// Header + 3 nodes for the second sample (first sample has no nodes).
	if len(nodeLines) != 4 {
		t.Fatalf("node lines = %d: %q", len(nodeLines), nodeBuf.String())
	}
	if nodeLines[0] != "at_ms,node,tx_ms,rx_ms" {
		t.Fatalf("node header = %q", nodeLines[0])
	}
	if nodeLines[2] != "30000,1,6.250,37.625" {
		t.Fatalf("node row = %q", nodeLines[2])
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := NewSeries(10 * time.Second)
	s.Append(Sample{AtMS: 0, Completeness: 1})
	s.Append(Sample{AtMS: 10_000, Messages: 5, NodeTxMS: []float64{0, 1.5}, Completeness: 0.875})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatal(err)
	}
	var back Series
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Fatalf("round trip changed series:\n  out: %+v\n  back: %+v", s, back)
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
