package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// `go test -update` rewrites the goldens from the current build.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current binary")

// TestWorkloadGolden runs the built binary at seeds 1 and 7 and pins what
// it writes: the bytes of `gen -kind random -queries 25` and `gen -kind A`
// (seed-independent, so both seeds must match one golden) and what `show`
// prints for the random file. Every command runs in one temporary
// directory on relative paths, so the file names they echo are the same on
// every machine. Running such a file under every scheme is ttmqo-sim's
// TestCompareGolden.
func TestWorkloadGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ttmqo-workload")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return string(out)
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, seed := range []string{"1", "7"} {
		run("gen", "-kind", "A", "-seed", seed, "-out", "a.json")
		checkGolden(t, filepath.Join("testdata", "gen_A.golden"), read("a.json"))

		run("gen", "-kind", "random", "-queries", "25", "-seed", seed, "-out", "w.json")
		checkGolden(t, filepath.Join("testdata", "gen_random_seed"+seed+".golden"), read("w.json"))
		checkGolden(t, filepath.Join("testdata", "show_seed"+seed+".golden"), []byte(run("show", "w.json")))
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
