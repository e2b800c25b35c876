package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// generatedIn is the wall-clock clause of the report's subtitle line.
var generatedIn = regexp.MustCompile(` · generated in [^\n]*`)

// TestMarkdownGolden pins the -md report of `-minutes 1 -runs 1` at seeds
// 1 and 7, with its wall-clock parts stripped: the "generated in" clause
// and the "Wall-clock timing" section.
func TestMarkdownGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, dir := buildBench(t), t.TempDir()
	for _, seed := range []string{"1", "7"} {
		name := "report_seed" + seed
		out := filepath.Join(dir, name+".md")
		if msg, err := exec.Command(bin, "-md", out, "-minutes", "1", "-runs", "1", "-seed", seed).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, msg)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		md, _, _ := strings.Cut(string(got), "\n## Wall-clock timing")
		md = generatedIn.ReplaceAllString(md, "")
		checkGolden(t, filepath.Join("testdata", name+".md.golden"), []byte(md))
	}
}

// TestTextAndMarkdownNameTheSameColumns: every study's -fig text table and
// its -md report table have the same headers in the same order.
func TestTextAndMarkdownNameTheSameColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin, dir := buildBench(t), t.TempDir()
	args := []string{"-minutes", "1", "-runs", "1", "-seed", "1"}
	text, err := exec.Command(bin, append(args, "-fig", "all")...).Output()
	if err != nil {
		t.Fatal(err)
	}
	report := filepath.Join(dir, "report.md")
	if msg, err := exec.Command(bin, append(args, "-md", report)...).CombinedOutput(); err != nil {
		t.Fatalf("%v\n%s", err, msg)
	}
	md, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	// The text header is the line after each "=== Figure" banner, its
	// columns padded with spaces; the markdown header is the first table
	// line of each study's section.
	var figs, textHeads, mdHeads []string
	lines := strings.Split(string(text), "\n")
	for i, line := range lines {
		if fig, ok := strings.CutPrefix(line, "=== Figure "); ok {
			figs = append(figs, strings.TrimSuffix(fig, " ==="))
			textHeads = append(textHeads, strings.Join(strings.Fields(lines[i+1]), " "))
		}
	}
	body, _, _ := strings.Cut(string(md), "\n## Wall-clock timing")
	for _, section := range strings.Split(body, "\n## ")[1:] {
		for _, line := range strings.Split(section, "\n") {
			if strings.HasPrefix(line, "| ") {
				mdHeads = append(mdHeads, strings.Join(strings.Split(strings.Trim(line, "| "), " | "), " "))
				break
			}
		}
	}
	if len(textHeads) != len(mdHeads) {
		t.Fatalf("%d text tables, %d markdown tables", len(textHeads), len(mdHeads))
	}
	for i, fig := range figs {
		if textHeads[i] != mdHeads[i] {
			t.Errorf("-fig %s: text columns %q, markdown columns %q", fig, textHeads[i], mdHeads[i])
		}
	}
}
