package experiments

import "testing"

func runShareSweep(t *testing.T) []ShareStudyRow {
	t.Helper()
	rows, err := RunShareStudy(ShareStudyConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (4 overlaps x on/off)", len(rows))
	}
	return rows
}

// TestShareStudyAcceptance pins the study's headline claims: at overlap
// factor >= 0.5 sharing injects strictly fewer tier-1 messages than the
// dedup-only baseline, and the warm cache keeps late-subscriber ttfr95 at
// least 5x below the cold ttfr95. At overlap 0 (single-cell queries,
// fragments coincide with queries) sharing must not cost anything.
func TestShareStudyAcceptance(t *testing.T) {
	rows := runShareSweep(t)
	byKey := make(map[float64]map[bool]ShareStudyRow)
	for _, r := range rows {
		if byKey[r.Overlap] == nil {
			byKey[r.Overlap] = make(map[bool]ShareStudyRow)
		}
		byKey[r.Overlap][r.Sharing] = r
	}
	for f, pair := range byKey {
		off, on := pair[false], pair[true]
		if off.Messages == 0 || on.Messages == 0 {
			t.Fatalf("overlap %.2f: empty message counts: %+v / %+v", f, off, on)
		}
		if f >= 0.5 && on.Messages >= off.Messages {
			t.Errorf("overlap %.2f: sharing injected %d messages, baseline %d — no win",
				f, on.Messages, off.Messages)
		}
		if f == 0 && on.Messages > off.Messages {
			t.Errorf("overlap 0: sharing overhead with nothing to share: %d > %d",
				on.Messages, off.Messages)
		}
		if on.ColdTTFR95MS <= 0 || on.LateTTFR95MS <= 0 {
			t.Fatalf("overlap %.2f: missing TTFR samples: %+v", f, on)
		}
		if on.LateTTFR95MS*5 > on.ColdTTFR95MS {
			t.Errorf("overlap %.2f: warm late ttfr95 %.0fms not 5x below cold %.0fms",
				f, on.LateTTFR95MS, on.ColdTTFR95MS)
		}
		if f >= 0.5 && on.FragmentReuse <= 0 {
			t.Errorf("overlap %.2f: no fragment reuse recorded", f)
		}
		if on.CacheHitRatio <= 0 {
			t.Errorf("overlap %.2f: no cache hits recorded", f)
		}
		// Without sharing, a late joiner waits out an epoch like everyone
		// else — the cache is what cuts it, not the workload.
		if off.LateTTFR95MS*5 <= off.ColdTTFR95MS {
			t.Errorf("overlap %.2f: baseline late ttfr95 %.0fms already 5x below cold %.0fms — study not discriminating",
				f, off.LateTTFR95MS, off.ColdTTFR95MS)
		}
	}
}

// TestShareStudyDeterministic reruns the sweep and asserts identical rows:
// the study reports virtual-time quantities only.
func TestShareStudyDeterministic(t *testing.T) {
	a := runShareSweep(t)
	b := runShareSweep(t)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs between runs:\n first:  %+v\n second: %+v", i, a[i], b[i])
		}
	}
}
