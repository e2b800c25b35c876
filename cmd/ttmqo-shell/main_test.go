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

// TestScriptedSessionGolden drives the built binary through a stdin script —
// post, run, stop, manifest, export — and pins, at seeds 1 and 7, what the
// console prints and the run export it writes.
func TestScriptedSessionGolden(t *testing.T) {
	bin := buildShell(t)
	for _, seed := range []string{"1", "7"} {
		export := filepath.Join(t.TempDir(), "run"+seed+".json")
		out := runScript(t, bin, seed,
			"post SELECT light WHERE light > 200 EPOCH DURATION 4096",
			"post SELECT MAX(temp) WHERE temp > 20 EPOCH DURATION 8192",
			"run 60",
			"stop 1",
			"run 30",
			"manifest",
			"export "+export,
			"quit",
		)
		got, err := os.ReadFile(export)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("testdata/export_seed%s.golden", seed), got)
		// The console names the export's temporary path; pin it by name.
		checkGolden(t, fmt.Sprintf("testdata/console_seed%s.golden", seed),
			[]byte(strings.ReplaceAll(string(out), export, "run.json")))
	}
}

// TestScriptedLoadGolden loads testdata/load.json 30 s into a session that
// posted a query of its own, and pins at seeds 1 and 7 what the console
// prints: the loaded queries take the IDs after the session's, the one that
// departed before 30 s is skipped, the one that arrived is admitted at once,
// and each query with a departure stops at it.
func TestScriptedLoadGolden(t *testing.T) {
	bin := buildShell(t)
	for _, seed := range []string{"1", "7"} {
		out := runScript(t, bin, seed,
			"post SELECT temp EPOCH DURATION 4096",
			"run 30",
			"load testdata/load.json",
			"queries",
			"run 45",
			"queries",
			"run 45",
			"queries",
			"help",
			"quit",
		)
		checkGolden(t, fmt.Sprintf("testdata/load_seed%s.golden", seed), out)
	}
}

// TestLoadDepartureAfterLifetime: a loaded query whose LIFETIME ends before
// its departure stops at the end of its lifetime, and its departure is not
// scheduled, so it cannot panic on the ID the LIFETIME already removed.
func TestLoadDepartureAfterLifetime(t *testing.T) {
	bin := buildShell(t)
	file := filepath.Join(t.TempDir(), "lifetime.json")
	const ws = `[{"id": 1, "query": "SELECT light EPOCH DURATION 4096 LIFETIME 10s", "arrive_ms": 0, "depart_ms": 30000}]`
	if err := os.WriteFile(file, []byte(ws), 0o644); err != nil {
		t.Fatal(err)
	}
	out := string(runScript(t, bin, "1", "load "+file, "run 60", "queries", "quit"))
	if !strings.Contains(out, "query 1 admitted") || strings.Contains(out, "query 1 stops") {
		t.Errorf("load scheduled the departure after the lifetime:\n%s", out)
	}
}

// buildShell builds the binary into the test's temporary directory.
func buildShell(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "ttmqo-shell")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runScript feeds the lines to the binary's stdin at seed and returns what it
// printed.
func runScript(t *testing.T, bin, seed string, lines ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, "-seed", seed)
	cmd.Stdin = strings.NewReader(strings.Join(lines, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("seed %s: %v\n%s", seed, err, out)
	}
	return out
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
