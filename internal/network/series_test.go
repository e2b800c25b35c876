package network

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSeriesCSVShape(t *testing.T) {
	s := &Series{IntervalMS: 30_000, Samples: []Sample{{AtMS: 0, Completeness: 1}, {
		AtMS: 30_000, Messages: 10, Retransmissions: 1, Dropped: 0, Bytes: 420,
		TxTotalMS: 12.5, RxTotalMS: 80.25, TxMaxMS: 3.125,
		NodeTxMS: []float64{0, 6.25, 6.25}, NodeRxMS: []float64{5, 37.625, 37.625},
		UserQueries: 2, SyntheticQueries: 1, InstalledQueries: 1,
		QueueDepth: 4, EventsFired: 99, RowEpochs: 3, AggEpochs: 1,
		RowsDelivered: 6, Completeness: 1, Clipped: 0,
	}}}
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
	s := &Series{IntervalMS: 10_000, Samples: []Sample{
		{AtMS: 0, Completeness: 1},
		{AtMS: 10_000, Messages: 5, NodeTxMS: []float64{0, 1.5}, Completeness: 0.875},
	}}
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

// TestSampleCSVMatchesJSON: every scalar column in the series CSV header
// must be a JSON field of Sample (same name), so the two export formats
// cannot drift apart. Retransmissions, dropped and clipped must appear in
// both.
func TestSampleCSVMatchesJSON(t *testing.T) {
	s := &Series{IntervalMS: 1000, Samples: []Sample{{AtMS: 1000, Retransmissions: 1, Dropped: 2, Clipped: 3}}}
	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := strings.TrimSpace(strings.SplitN(csv.String(), "\n", 2)[0])
	cols := strings.Split(header, ",")

	data, err := json.Marshal(Sample{NodeTxMS: []float64{1}, NodeRxMS: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		if _, ok := doc[c]; !ok {
			t.Errorf("CSV column %q is not a JSON field of Sample", c)
		}
	}
	for _, c := range []string{"retransmissions", "dropped", "clipped"} {
		found := false
		for _, col := range cols {
			if col == c {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("series CSV header lacks loss column %q", c)
		}
	}
}
