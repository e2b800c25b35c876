package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (map[string]*workloadResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[string]*workloadResult, len(f.Workloads))
	for _, w := range f.Workloads {
		m[w.Workload] = w
	}
	return m, nil
}

// verdict holds b against a under one metric's rule. Exact metrics must
// repeat when both sides did the same fixed work; every other metric may
// be worse than a by at most its bound.
func verdict(d metricDef, a, b float64, sameWork bool) string {
	if d.Exact && sameWork {
		if a == b {
			return "EXACT"
		}
		return "EXACT-MISMATCH"
	}
	worse := b/a - 1 // lower is better
	if d.Better == "higher" {
		worse = a/b - 1
	}
	if a == 0 || b == 0 {
		worse = 0
		if a != b {
			worse = 1
		}
	}
	if worse > d.Bound {
		return "REGRESSED"
	}
	return "PASS"
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the ratio b/a with a as its base, and the verdict. It fails when any row
// regressed or an exact value or fingerprint differs.
func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Printf("a = %s (base)\nb = %s\n", pathA, pathB)
	for _, s := range specs {
		wa, wb := a[s.name], b[s.name]
		if wa == nil || wb == nil {
			continue
		}
		sameWork := wa.FixedWork && wb.FixedWork && wa.Rounds == wb.Rounds && wa.Seed == wb.Seed
		fmt.Printf("\n== %s  (a: %d rounds, b: %d rounds, same fixed work: %v)\n", s.name, wa.Rounds, wb.Rounds, sameWork)
		fmt.Printf("  %-40s %14s %14s %9s  %s\n", "metric", "a", "b", "b/a", "verdict")
		row := func(d metricDef, va, vb float64, bounded bool) {
			v := "-"
			if bounded || (d.Exact && sameWork) {
				v = verdict(d, va, vb, sameWork)
			}
			if v == "REGRESSED" || v == "EXACT-MISMATCH" {
				bad++
			}
			fmt.Printf("  %-40s %14.6g %14.6g %9.4f  %s\n", d.Name, va, vb, ratio(vb, va), v)
		}
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range endToEnd {
				row(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], true)
			}
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, d := range perLayer {
				row(d, wa.PerLayer[d.Name], wb.PerLayer[d.Name], false)
			}
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			bad++
			fmt.Printf("  %-40s %14d %14d %9s  FAILED\n", "failed", wa.Failed, wb.Failed, "")
		}
		if sameWork {
			v := "EXACT"
			if wa.Fingerprint != wb.Fingerprint || wa.TraceFingerprint != wb.TraceFingerprint {
				v = "EXACT-MISMATCH"
				bad++
			}
			fmt.Printf("  %-40s %14s %14s %9s  %s\n", "result_fingerprint", wa.Fingerprint[:12], wb.Fingerprint[:12], "", v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) regressed or mismatched", bad)
	}
	return nil
}
