package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// `go test -update` rewrites the goldens from the current build.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current binary")

// TestExportGolden runs the built binary and pins the bytes of its -json
// export at seeds 1 and 7: a single run (random workload, so queries both
// arrive and depart), the same under a chaos scenario, and a two-seed
// replay. Every export is a pure function of the flags, so any change to
// how a run is scheduled or exported must reproduce them byte for byte.
func TestExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ttmqo-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, seed := range []string{"1", "7"} {
		for _, tc := range []struct{ name, args string }{
			{"single", "-minutes 4 -workload random -queries 30"},
			{"chaos", "-minutes 2 -workload random -queries 30 -chaos churn"},
			{"runs", "-minutes 2 -workload random -queries 30 -runs 2 -parallel 1"},
		} {
			name := fmt.Sprintf("%s_seed%s", tc.name, seed)
			out := filepath.Join(dir, name+".json")
			args := append(strings.Fields(tc.args), "-seed", seed, "-json", out)
			if msg, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, msg)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", name+".golden"), got)
		}
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs:\n%s", path, got)
	}
}
