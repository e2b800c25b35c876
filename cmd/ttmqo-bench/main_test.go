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
	bin, dir := buildBench(t), t.TempDir()
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

// TestMarkdownExportMatchesFigAll: the -json export written beside a -md
// report holds the same bytes as the one `-fig all` writes for the same
// seed, duration and runs — every study, in the one registry order.
func TestMarkdownExportMatchesFigAll(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, dir := buildBench(t), t.TempDir()
	export := func(args ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, fmt.Sprintf("export%d.json", len(args)))
		args = append(args, "-seed", "7", "-minutes", "1", "-runs", "1", "-json", out)
		if msg, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	md := export("-md", filepath.Join(dir, "report.md"))
	all := export("-fig", "all")
	if string(md) != string(all) {
		t.Fatalf("-md -json differs from -fig all -json:\n%s\n---\n%s", md, all)
	}
}

// TestUnknownFigFails: a -fig value that names no study runs nothing,
// writes no export, exits non-zero and lists the valid names — with or
// without -json.
func TestUnknownFigFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, dir := buildBench(t), t.TempDir()
	out := filepath.Join(dir, "out.json")
	const names = "2, 3, 4a, 4b, 4c, 5, reliability, chaos, scaling, federation, share, lifetime, ablation or all"
	for _, args := range [][]string{{"-fig", "6"}, {"-fig", "6", "-json", out}} {
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err == nil {
			t.Errorf("%v exited 0; stdout:\n%s", args, stdout)
		}
		if len(stdout) != 0 {
			t.Errorf("%v printed:\n%s", args, stdout)
		}
		if !strings.Contains(stderr.String(), names) {
			t.Errorf("%v: stderr does not list %q:\n%s", args, names, stderr.String())
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-fig 6 wrote %s (stat: %v)", out, err)
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
