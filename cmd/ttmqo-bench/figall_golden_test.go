package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench builds the command into a fresh temporary directory and
// returns the binary's path.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ttmqo-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFigAllGolden pins what `-fig all -minutes 1 -runs 1` prints and
// exports at seeds 1 and 7: the text tables of every study, with the
// wall-clock `timing:` lines stripped, and the bytes of its -json file.
func TestFigAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBench(t)
	dir := t.TempDir()
	for _, seed := range []string{"1", "7"} {
		name := "fig_all_seed" + seed
		cmd := exec.Command(bin, "-fig", "all", "-minutes", "1", "-runs", "1",
			"-seed", seed, "-json", name+".json")
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
		checkGolden(t, filepath.Join("testdata", fmt.Sprintf("%s.golden", name)), got)
	}
}
