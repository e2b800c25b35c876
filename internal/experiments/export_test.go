package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/network"
)

// Exported sweep rows must survive a JSON round trip unchanged: export →
// decode → compare against the in-memory rows.
func TestSweepJSONRoundTrip(t *testing.T) {
	rows, err := RunFigure3(Fig3Config{Seed: 1, Duration: 2 * time.Minute, Sides: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	m := SweepManifest("figure 3", 1, 2*time.Minute, 1)
	var buf bytes.Buffer
	if err := WriteSweepJSON(&buf, m, Study{Name: "figure 3", Rows: rows}); err != nil {
		t.Fatal(err)
	}

	var back struct {
		Manifest network.Manifest `json:"manifest"`
		Studies  []struct {
			Name string    `json:"name"`
			Rows []Fig3Row `json:"rows"`
		} `json:"studies"`
	}
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Manifest != m {
		t.Fatalf("manifest changed in round trip:\n  out: %+v\n  back: %+v", m, back.Manifest)
	}
	if len(back.Studies) != 1 || back.Studies[0].Name != "figure 3" {
		t.Fatalf("studies = %+v", back.Studies)
	}
	if !reflect.DeepEqual(back.Studies[0].Rows, rows) {
		t.Fatalf("rows changed in round trip:\n  out: %+v\n  back: %+v", rows, back.Studies[0].Rows)
	}
}

// The paper's evaluation artifacts are published as JSON; the bytes must be
// identical whether the sweep ran serially or fanned across 8 workers.
func TestExportedSweepJSONIdenticalAcrossParallelism(t *testing.T) {
	export := func(par int) []byte {
		t.Helper()
		rows, err := RunFigure3(Fig3Config{
			Seed: 1, Duration: 2 * time.Minute, Sides: []int{4}, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m := SweepManifest("figure 3", 1, 2*time.Minute, 1)
		if err := WriteSweepJSON(&buf, m, Study{Name: "figure 3", Rows: rows}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := export(1), export(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("exported sweep JSON differs between 1 and 8 workers:\n serial %d bytes, parallel %d bytes",
			len(serial), len(parallel))
	}
}

// Report.Export covers every study of the registry, in registry order, and
// excludes wall-clock timing, so a full-report export is reproducible too.
func TestReportExportShape(t *testing.T) {
	r, err := RunAll(ReportConfig{Seed: 1, Duration: time.Minute, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := r.Export()
	if ex.Manifest.Study != "all" || ex.Manifest.Seed != 1 || ex.Manifest.Runs != 1 {
		t.Fatalf("manifest = %+v", ex.Manifest)
	}
	var names []string
	for _, s := range ex.Studies {
		names = append(names, s.Name)
	}
	want := []string{"figure 2", "figure 3", "figure 4a", "figure 4b", "figure 4c", "figure 5",
		"reliability", "chaos", "scaling", "federation", "share", "lifetime", "ablation"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("studies = %q, want %q", names, want)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range want {
		if !bytes.Contains(buf.Bytes(), []byte(`"name": "`+name+`"`)) {
			t.Fatalf("study %q missing from export:\n%s", name, buf.String())
		}
	}
	if bytes.Contains(buf.Bytes(), []byte("Wall")) || bytes.Contains(buf.Bytes(), []byte("wall")) {
		t.Fatal("wall-clock timing leaked into the export")
	}
}
