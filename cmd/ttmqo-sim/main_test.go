package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	ttmqo "repro"
	"repro/internal/workload"
)

// `go test -update` rewrites the goldens from the current build.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current binary")

// buildSim builds the command into a fresh temporary directory and returns
// the binary's path.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ttmqo-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeWorkload writes the file `ttmqo-workload gen -kind random -queries
// 25 -seed <seed>` writes (pinned in ../ttmqo-workload/testdata) to dir/name.
func writeWorkload(t *testing.T, dir, name string, seed int64) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ws := ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{Seed: seed, NumQueries: 25, TargetConcurrency: 8})
	if err := workload.SaveJSON(f, ws); err != nil {
		t.Fatal(err)
	}
}

// TestExportGolden runs the built binary and pins the bytes of its -json
// export at seeds 1 and 7: a single run (random workload, so queries both
// arrive and depart), the same under a chaos scenario, and a two-seed
// replay. Every export is a pure function of the flags, so any change to
// how a run is scheduled or exported must reproduce them byte for byte.
func TestExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)
	dir := t.TempDir()
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

// TestCompareGolden pins `-workload w.json -compare` at seeds 1 and 7 on
// the random 25-query workload file of that seed: the comparison table
// (the wall-clock `timing:` line stripped) and the bytes of its -json
// export. The command runs in the file's directory on relative paths, so
// the names it echoes and records are the same on every machine.
func TestCompareGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)
	dir := t.TempDir()
	for _, seed := range []int64{1, 7} {
		writeWorkload(t, dir, "w.json", seed)
		name := fmt.Sprintf("compare_seed%d", seed)
		cmd := exec.Command(bin, "-workload", "w.json", "-compare", "-minutes", "3", "-parallel", "1",
			"-seed", fmt.Sprint(seed), "-json", name+".json")
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stderr.String())
		}
		var kept strings.Builder
		for _, line := range strings.SplitAfter(string(stdout), "\n") {
			if !strings.HasPrefix(line, "timing: ") {
				kept.WriteString(line)
			}
		}
		checkGolden(t, filepath.Join("testdata", name+".stdout.golden"), []byte(kept.String()))
		got, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", name+".golden"), got)
	}
}

// TestScenarioFlags: -minutes 0 simulates the workload's span plus one
// minute (ten minutes for a workload that never departs), and -compare
// refuses -runs > 1 rather than print a table neither mode has.
func TestScenarioFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)
	dir := t.TempDir()
	writeWorkload(t, dir, "w.json", 1)
	f, err := os.Open(filepath.Join(dir, "w.json"))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := workload.LoadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var span time.Duration
	for _, w := range ws {
		span = max(span, w.Depart)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "w.json", "-minutes", "0"}, fmt.Sprintf("simulated=%v ", span+time.Minute)},
		{[]string{"-workload", "A", "-minutes", "0"}, "simulated=10m0s "},
	} {
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: want %q in output (err %v):\n%s", tc.args, tc.want, err, out)
		}
	}
	cmd := exec.Command(bin, "-workload", "w.json", "-compare", "-runs", "2")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "-compare") {
		t.Errorf("-compare -runs 2: want an error naming -compare, got %v:\n%s", err, out)
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
