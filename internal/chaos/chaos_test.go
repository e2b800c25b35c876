package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestBuiltinRoundTrip(t *testing.T) {
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		back, err := ParseScenario(sc.String())
		if err != nil {
			t.Fatalf("reparse %q:\n%s\n%v", name, sc.String(), err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("%q did not round-trip:\n%#v\n%#v", name, sc, back)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatalf("Builtin(nope) succeeded")
	}
}

func TestParseScenario(t *testing.T) {
	text := `
# a comment
scenario demo
seed 7
at 10s fail 3      # inline comment
at 1m loss 0.25 for 30s
at 90s crash
at 20s revive 3
expect completeness >= 0.5
expect gaps <= 2
`
	sc, err := ParseScenario(text)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "demo" || sc.Seed != 7 || sc.MinCompleteness != 0.5 || sc.MaxGaps != 2 {
		t.Fatalf("header mismatch: %+v", sc)
	}
	if len(sc.Steps) != 4 {
		t.Fatalf("want 4 steps, got %d", len(sc.Steps))
	}
	// Sorted by time: fail@10s, revive@20s, loss@60s, crash@90s.
	kinds := []StepKind{StepFail, StepRevive, StepLoss, StepCrash}
	for i, k := range kinds {
		if sc.Steps[i].Kind != k {
			t.Fatalf("step %d: want %v, got %v", i, k, sc.Steps[i].Kind)
		}
	}
	if got := len(sc.Crashes()); got != 1 {
		t.Fatalf("Crashes: want 1, got %d", got)
	}
	if got := len(sc.EngineSteps()); got != 3 {
		t.Fatalf("EngineSteps: want 3, got %d", got)
	}

	for _, bad := range []string{
		"at 10s fail 3\n",                        // no name
		"scenario x\nfrobnicate\n",               // unknown directive
		"scenario x\nat 10s melt 3\n",            // unknown step
		"scenario x\nat 10s loss 1.5 for 10s\n",  // rate out of range
		"scenario x\nat 10s loss 0.5\n",          // missing for
		"scenario x\nat 10s fail zero\n",         // bad node
		"scenario x\nexpect completeness <= 1\n", // wrong operator
		"scenario x\nexpect latency >= 1\n",      // unknown metric
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) succeeded, want error", bad)
		}
	}
}

func TestDirectivesCoverStepKinds(t *testing.T) {
	have := strings.Join(Directives(), " ")
	for _, k := range []StepKind{StepFail, StepRevive, StepPartition, StepHeal, StepLoss, StepCrash} {
		if !strings.Contains(have, k.String()) {
			t.Errorf("Directives() misses step keyword %q", k)
		}
	}
}

// runBuiltin runs one builtin scenario with a per-test WAL.
func runBuiltin(t *testing.T, name string, seed int64) *Report {
	t.Helper()
	sc, err := Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(ScriptDrill, Config{Script: sc, Seed: seed, WALDir: t.TempDir()})
	if err != nil {
		t.Fatalf("Run(%s): %v", name, err)
	}
	return rep
}

func TestScenarioNoneIsClean(t *testing.T) {
	rep := runBuiltin(t, "none", 1)
	if len(rep.Violations) != 0 {
		t.Fatalf("violations under no faults: %v", rep.Violations)
	}
	if rep.Updates == 0 || rep.Rows == 0 {
		t.Fatalf("no deliveries: %+v", rep)
	}
	if rep.Completeness < 0.9 {
		t.Fatalf("faultless completeness %.3f < 0.9", rep.Completeness)
	}
	if rep.Crashes != 0 || rep.Reconnects != 0 {
		t.Fatalf("phantom crash activity: %+v", rep)
	}
	if rep.Gateway.DedupHits == 0 {
		t.Fatalf("workload never exercised semantic dedup: %+v", rep.Gateway)
	}
}

// TestCrashRecoveryInvariants is the acceptance test for the tentpole: a
// scripted scenario kills and restarts the gateway twice mid-run; every
// client must resume its streams with no duplicate delivery and no
// permanently lost epochs (contiguous sequence numbers across both
// crash/recover cycles), with the invariant checker asserting it.
func TestCrashRecoveryInvariants(t *testing.T) {
	rep := runBuiltin(t, "crash", 1)
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	if rep.Crashes != 2 {
		t.Fatalf("want 2 crash/recover cycles, got %d", rep.Crashes)
	}
	if rep.Duplicates != 0 {
		t.Fatalf("duplicate deliveries after resume: %d", rep.Duplicates)
	}
	if rep.Gaps != 0 {
		t.Fatalf("permanently lost epochs (sequence gaps): %d", rep.Gaps)
	}
	if want := int64(rep.Clients * rep.Crashes); rep.Reconnects != want {
		t.Fatalf("reconnects: want %d, got %d", want, rep.Reconnects)
	}
	if rep.Gateway.Recoveries != 1 {
		t.Fatalf("final gateway not marked recovered: %+v", rep.Gateway)
	}
	if rep.Gateway.Attaches != int64(rep.Clients) || rep.Gateway.Resumes != int64(rep.Clients) {
		// The final gateway saw the second cycle's re-attachments.
		t.Fatalf("attach/resume accounting off: %+v", rep.Gateway)
	}
	if rep.Updates == 0 {
		t.Fatalf("no deliveries survived the crashes")
	}
	// The readiness invariant: one probe before the first round plus a
	// 503-during-outage and 200-after-replay pair per crash, all of which
	// must have seen the expected status (a mismatch is a violation, and
	// Violations was asserted empty above).
	if want := 1 + 2*rep.Crashes; rep.ReadyProbes != want {
		t.Fatalf("readiness probes: want %d, got %d", want, rep.ReadyProbes)
	}
}

func TestScenarioRunsAreDeterministic(t *testing.T) {
	a := runBuiltin(t, "mixed", 5)
	b := runBuiltin(t, "mixed", 5)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same scenario+seed diverged:\n%s\n%s", ja, jb)
	}
}

// TestChaosSoak drives the kitchen-sink scenario; `make chaos-soak` runs it
// under the race detector in CI.
func TestChaosSoak(t *testing.T) {
	rep := runBuiltin(t, "mixed", 3)
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations: %v", rep.Violations)
	}
	if rep.Crashes != 2 {
		t.Fatalf("want 2 crashes, got %d", rep.Crashes)
	}
	if rep.FaultEvents != 7 {
		t.Fatalf("want 7 fault events, got %d", rep.FaultEvents)
	}
	if want := 1 + 2*rep.Crashes; rep.ReadyProbes != want {
		t.Fatalf("readiness probes: want %d, got %d", want, rep.ReadyProbes)
	}
}

// TestSessionChurnChaosSoak runs the session-churn drill — every client
// staging its subscribe or unsubscribe from its own goroutine, a crash and
// recovery mid-run — twice per seed: the reports must be byte-identical
// however the goroutines interleaved, with no violation, at least one
// unsubscribe and the readiness probes of one crash/recover cycle. It
// rides `make chaos-soak` under the race detector.
func TestSessionChurnChaosSoak(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var first []byte
		for i := 0; i < 2; i++ {
			rep, err := Run("session-churn", Config{Seed: seed, WALDir: t.TempDir()})
			if err != nil {
				t.Fatalf("seed=%d: %v", seed, err)
			}
			for _, v := range rep.Violations {
				t.Errorf("seed=%d violation: %s", seed, v)
			}
			if rep.Gateway.Unsubscribes == 0 || rep.Crashes != 1 || rep.ReadyProbes != 3 {
				t.Errorf("seed=%d: unsubscribes=%d crashes=%d probes=%d, want > 0, 1, 3",
					seed, rep.Gateway.Unsubscribes, rep.Crashes, rep.ReadyProbes)
			}
			got, _ := json.Marshal(rep)
			if i == 0 {
				first = got
			} else if string(got) != string(first) {
				t.Fatalf("seed=%d: same seed, different reports:\n%s\n%s", seed, first, got)
			}
		}
	}
}
