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
// sweep export at seeds 1 and 7 for the Figure 2 example and a short
// Figure 3 sweep.
func TestExportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ttmqo-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, seed := range []string{"1", "7"} {
		for _, tc := range []struct{ name, args string }{
			{"fig2", "-fig 2"},
			{"fig3", "-fig 3 -minutes 1 -runs 1"},
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
