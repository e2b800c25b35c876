package chaos

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/tracing"
)

// TestShareScenarioValidation covers the config guard rails.
func TestShareScenarioValidation(t *testing.T) {
	if _, err := Run("crash-under-the-cache", Config{}); err == nil {
		t.Fatal("share drill ran without a WAL directory")
	}
	// The drill recovers at round 9 and needs two more rounds after it.
	if _, err := Run("crash-under-the-cache", Config{WALDir: t.TempDir(), Rounds: 10}); err == nil {
		t.Fatal("share drill accepted a round budget too short to observe recovery")
	}
}

// TestShareCrashUnderTheCache crashes the gateway underneath the sharing
// coordinator mid-stream, lets a late subscriber replay from cache during
// the outage, recovers the gateway from its WAL and asserts every
// delivery invariant — including value agreement between cached replay
// and live delivery — held across the crash.
func TestShareCrashUnderTheCache(t *testing.T) {
	rep, err := Run("crash-under-the-cache", Config{Seed: 7, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.LateReplayed == 0 {
		t.Fatal("mid-outage subscriber replayed nothing from cache")
	}
	if rep.Updates <= rep.UpdatesAtFault {
		t.Fatalf("no post-recovery progress: %d at fault, %d final", rep.UpdatesAtFault, rep.Updates)
	}
	if rep.Duplicates != 0 || rep.Gaps != 0 || rep.OrderViolations != 0 || rep.ValueMismatches != 0 {
		t.Fatalf("delivery invariants broken: dup=%d gaps=%d order=%d values=%d",
			rep.Duplicates, rep.Gaps, rep.OrderViolations, rep.ValueMismatches)
	}
	if rep.Share.Reattaches != 1 || rep.Share.UpstreamResumes == 0 {
		t.Fatalf("failover accounting: reattaches=%d resumes=%d",
			rep.Share.Reattaches, rep.Share.UpstreamResumes)
	}
}

// TestShareTraceCausalPath asserts — from the drill's exported trace JSON
// alone, with no access to the in-process recorders — the full causal
// path of a delivery through the two-tier stack: a share-tier subscribe
// whose residual fragment admission parents the gateway-tier subscribe
// and admit hops, plus the mid-outage cache-replay hop, the crash and the
// WAL-replay recovery. It also pins determinism: two runs of the same
// seed produce byte-identical exports, regardless of -parallel level or
// what else the test binary is running.
func TestShareTraceCausalPath(t *testing.T) {
	run := func() *Report {
		rep, err := Run("crash-under-the-cache", Config{Seed: 7, WALDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep, rep2 := run(), run()
	if len(rep.Traces) == 0 {
		t.Fatal("drill exported no trace JSON")
	}
	if !bytes.Equal(rep.Traces, rep2.Traces) {
		t.Fatalf("trace export is not deterministic across identical runs:\nrun1 %d bytes, run2 %d bytes",
			len(rep.Traces), len(rep2.Traces))
	}

	var exp tracing.Export
	if err := json.Unmarshal(rep.Traces, &exp); err != nil {
		t.Fatalf("trace export is not a tracing.Export: %v", err)
	}
	if exp.Spans == 0 || len(exp.Traces) == 0 {
		t.Fatalf("empty trace export: %d spans across %d traces", exp.Spans, len(exp.Traces))
	}

	// Walk every trace for one whose spans chain share/subscribe ->
	// share/residual-admit -> gateway/subscribe -> gateway/admit by
	// parent links, proving the context rode the fragment admission
	// across the tier boundary.
	causal := false
	sawReplay := false
	for _, tr := range exp.Traces {
		if tr.Trace == 0 {
			continue
		}
		byID := map[uint64]tracing.Span{}
		for _, s := range tr.Spans {
			byID[s.ID] = s
		}
		for _, s := range tr.Spans {
			if s.Tier == tracing.TierGateway && s.Kind == tracing.KindAdmit {
				gwSub, ok := byID[s.Parent]
				if !ok || gwSub.Tier != tracing.TierGateway || gwSub.Kind != tracing.KindSubscribe {
					continue
				}
				frag, ok := byID[gwSub.Parent]
				if !ok || frag.Tier != tracing.TierShare || frag.Kind != tracing.KindResidualAdmit {
					continue
				}
				shSub, ok := byID[frag.Parent]
				if ok && shSub.Tier == tracing.TierShare && shSub.Kind == tracing.KindSubscribe {
					causal = true
				}
			}
			if s.Tier == tracing.TierShare && s.Kind == tracing.KindCacheReplay && s.CacheHit {
				sawReplay = true
			}
		}
	}
	if !causal {
		t.Error("no trace chains share/subscribe -> residual-admit -> gateway/subscribe -> admit")
	}
	if !sawReplay {
		t.Error("the mid-outage cache replay left no cache-replay span")
	}

	// The tier-level trace (trace 0) must carry the crash and the WAL
	// replay that recovered from it — the flight recorder outlives the
	// gateway it was recording.
	kinds := map[string]bool{}
	for _, tr := range exp.Traces {
		if tr.Trace != 0 {
			continue
		}
		for _, s := range tr.Spans {
			kinds[s.Kind] = true
		}
	}
	if !kinds[tracing.KindCrash] {
		t.Error("tier-level trace lacks the crash span")
	}
	if !kinds[tracing.KindWALReplay] {
		t.Error("tier-level trace lacks the wal-replay span")
	}
}

// TestShareChaosSoak reruns the sharing drill across seeds and cache
// depths; it rides the `make chaos-soak` target next to the gateway and
// federation soaks.
func TestShareChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short mode")
	}
	for _, window := range []int{0, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			rep, err := Run("crash-under-the-cache", Config{Seed: seed, WALDir: t.TempDir(), Window: window})
			if err != nil {
				t.Fatalf("window=%d seed=%d: %v", window, seed, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("window=%d seed=%d violation: %s", window, seed, v)
			}
		}
	}
}

// TestFingerprintLedgerBounded pins the consistency ledger's memory flat
// across a drill-length stream of distinct epochs: the FIFO window never
// outgrows its cap (no map growth, no queue growth), mismatches inside
// the window are still caught, and evicted keys re-pin silently instead
// of false-positiving.
func TestFingerprintLedgerBounded(t *testing.T) {
	const window = 64
	l := newFingerprintLedger(window)
	for i := 0; i < 100_000; i++ {
		k := epochKey{qid: 1, at: time.Duration(i)}
		if l.check(k, "fp") {
			t.Fatalf("first sight of epoch %d reported a mismatch", i)
		}
		if l.size() > window {
			t.Fatalf("ledger grew to %d entries after %d inserts (cap %d)", l.size(), i+1, window)
		}
	}
	if l.size() != window {
		t.Fatalf("ledger holds %d entries after a long run, want a full window of %d", l.size(), window)
	}
	if got := len(l.order); got != window {
		t.Fatalf("FIFO ring holds %d slots, want %d", got, window)
	}
	if got := cap(l.order); got != window {
		t.Fatalf("FIFO ring backing array grew to %d slots, want %d", got, window)
	}

	// A conflicting re-observation inside the window is a mismatch...
	live := epochKey{qid: 1, at: time.Duration(99_999)}
	if !l.check(live, "different") {
		t.Fatal("in-window conflicting fingerprint not reported")
	}
	// ...while an agreeing one is not.
	if l.check(live, "fp") {
		t.Fatal("in-window agreeing fingerprint misreported")
	}
	// An epoch long since evicted re-pins with whatever it now carries.
	if l.check(epochKey{qid: 1, at: 0}, "different") {
		t.Fatal("evicted epoch treated as a mismatch")
	}
	if l.size() != window {
		t.Fatalf("re-pinning an evicted epoch grew the ledger to %d (cap %d)", l.size(), window)
	}
}
