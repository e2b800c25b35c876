package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"testing"
)

// The round-driven drills are pure functions of the seed
// (TestScenarioRunsAreDeterministic), so every virtual-time counter they
// report can be pinned: a refactor of the harness must reproduce this table
// exactly. The two wall-clock socket drills are exempt. The lines were
// recorded before the six harnesses became one runner and have not changed
// since.

// pinLine renders alternating name/value arguments as "name=value ...".
func pinLine(kv ...any) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%v", kv[i], kv[i+1])
	}
	return b.String()
}

// pinDigest is the FNV-1a digest of v's JSON encoding (raw bytes as they are).
func pinDigest(v any) string {
	data, ok := v.([]byte)
	if !ok {
		var err error
		if data, err = json.Marshal(v); err != nil {
			panic(err)
		}
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

var pinSeeds = []int64{1, 2, 3, 7}

// pinned holds one line per drill and seed, in pinSeeds order.
var pinned = map[string][]string{
	"none": {
		"faults=0 crashes=0 reconnects=0 probes=0 updates=108 rows=1386 expected=1386 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=0 crashes=0 reconnects=0 probes=0 updates=108 rows=1534 expected=1534 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=0 crashes=0 reconnects=0 probes=0 updates=108 rows=1349 expected=1349 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=0 crashes=0 reconnects=0 probes=0 updates=108 rows=1574 expected=1574 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
	},
	"churn": {
		"faults=6 crashes=0 reconnects=0 probes=0 updates=108 rows=1288 expected=1386 completeness=0.9292929292929293 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=6 crashes=0 reconnects=0 probes=0 updates=108 rows=1448 expected=1534 completeness=0.9439374185136897 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=6 crashes=0 reconnects=0 probes=0 updates=108 rows=1251 expected=1349 completeness=0.927353595255745 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=6 crashes=0 reconnects=0 probes=0 updates=108 rows=1476 expected=1574 completeness=0.9377382465057179 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
	},
	"burst": {
		"faults=2 crashes=0 reconnects=0 probes=0 updates=115 rows=1478 expected=1478 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=efd0f201da8df62d",
		"faults=2 crashes=0 reconnects=0 probes=0 updates=115 rows=1634 expected=1634 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=efd0f201da8df62d",
		"faults=2 crashes=0 reconnects=0 probes=0 updates=115 rows=1435 expected=1435 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=efd0f201da8df62d",
		"faults=2 crashes=0 reconnects=0 probes=0 updates=115 rows=1676 expected=1676 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=efd0f201da8df62d",
	},
	"partition": {
		"faults=2 crashes=0 reconnects=0 probes=0 updates=108 rows=1362 expected=1386 completeness=0.9826839826839827 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=2 crashes=0 reconnects=0 probes=0 updates=108 rows=1450 expected=1534 completeness=0.9452411994784876 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=2 crashes=0 reconnects=0 probes=0 updates=108 rows=1265 expected=1349 completeness=0.9377316530763529 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
		"faults=2 crashes=0 reconnects=0 probes=0 updates=108 rows=1490 expected=1574 completeness=0.9466327827191868 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=28c3f7dc1ac21490",
	},
	"crash": {
		"faults=2 crashes=2 reconnects=8 probes=5 updates=115 rows=1478 expected=1478 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=c7561d6f26fea547",
		"faults=2 crashes=2 reconnects=8 probes=5 updates=115 rows=1634 expected=1634 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=c7561d6f26fea547",
		"faults=2 crashes=2 reconnects=8 probes=5 updates=115 rows=1435 expected=1435 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=c7561d6f26fea547",
		"faults=2 crashes=2 reconnects=8 probes=5 updates=115 rows=1676 expected=1676 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=c7561d6f26fea547",
	},
	"mixed": {
		"faults=7 crashes=2 reconnects=8 probes=5 updates=129 rows=1583 expected=1660 completeness=0.9536144578313253 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=6137a5312183ab45",
		"faults=7 crashes=2 reconnects=8 probes=5 updates=129 rows=1687 expected=1834 completeness=0.9198473282442748 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=6137a5312183ab45",
		"faults=7 crashes=2 reconnects=8 probes=5 updates=129 rows=1460 expected=1607 completeness=0.9085252022401992 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=6137a5312183ab45",
		"faults=7 crashes=2 reconnects=8 probes=5 updates=129 rows=1733 expected=1880 completeness=0.9218085106382978 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=6137a5312183ab45",
	},
	"kill-a-shard": {
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=f5008ca0e7b8e33a",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=f5008ca0e7b8e33a",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=f5008ca0e7b8e33a",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=f5008ca0e7b8e33a",
	},
	"partition-the-router": {
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=23e47b7984124456",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=23e47b7984124456",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=23e47b7984124456",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=23e47b7984124456",
	},
	"crash-under-the-cache": {
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf",
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf",
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf",
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf traces=c69538a734a53afb",
	},
	"stuck-shard": {
		"updates=15 dup=0 gaps=0 order=0 at_fault=3 at_clear=7 degraded=4 min_coverage=0.5 violations=0 stats=1ab74cb4cc6e93b5",
		"updates=15 dup=0 gaps=0 order=0 at_fault=3 at_clear=7 degraded=4 min_coverage=0.5 violations=0 stats=1ab74cb4cc6e93b5",
		"updates=15 dup=0 gaps=0 order=0 at_fault=3 at_clear=7 degraded=4 min_coverage=0.5 violations=0 stats=1ab74cb4cc6e93b5",
		"updates=15 dup=0 gaps=0 order=0 at_fault=3 at_clear=7 degraded=4 min_coverage=0.5 violations=0 stats=1ab74cb4cc6e93b5",
	},
}

// pinRun runs one drill at one seed and renders its counters.
func pinRun(t *testing.T, drill string, seed int64) string {
	t.Helper()
	switch drill {
	case "kill-a-shard", "partition-the-router":
		rep, err := RunFederationScenario(FedRunConfig{Scenario: drill, Seed: seed, WALDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s seed=%d: %v", drill, seed, err)
		}
		return pinLine("updates", rep.Updates, "rows", rep.Rows, "dup", rep.Duplicates, "gaps", rep.Gaps,
			"order", rep.OrderViolations, "at_fault", rep.UpdatesAtFault,
			"violations", len(rep.Violations), "stats", pinDigest(rep.Stats))
	case "crash-under-the-cache":
		rep, err := RunShareScenario(ShareRunConfig{Seed: seed, WALDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s seed=%d: %v", drill, seed, err)
		}
		line := pinLine("updates", rep.Updates, "rows", rep.Rows, "dup", rep.Duplicates, "gaps", rep.Gaps,
			"order", rep.OrderViolations, "at_fault", rep.UpdatesAtFault, "late_replayed", rep.LateReplayed,
			"value_mismatches", rep.ValueMismatches,
			"violations", len(rep.Violations), "stats", pinDigest(rep.Stats))
		if seed == 7 {
			line += " traces=" + pinDigest([]byte(rep.Traces))
		}
		return line
	case "stuck-shard":
		rep, err := RunStuckShardScenario(StuckShardConfig{Seed: seed})
		if err != nil {
			t.Fatalf("%s seed=%d: %v", drill, seed, err)
		}
		return pinLine("updates", rep.Updates, "dup", rep.Duplicates, "gaps", rep.Gaps,
			"order", rep.OrderViolations, "at_fault", rep.UpdatesAtFault, "at_clear", rep.UpdatesAtClear,
			"degraded", rep.DegradedUpdates, "min_coverage", rep.MinCoverage,
			"violations", len(rep.Violations), "stats", pinDigest(rep.Stats))
	}
	sc, err := Builtin(drill)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScenario(RunConfig{Scenario: sc, Seed: seed, WALPath: filepath.Join(t.TempDir(), drill+".wal")})
	if err != nil {
		t.Fatalf("%s seed=%d: %v", drill, seed, err)
	}
	// value_mismatches: the by-value row check lands with the unified
	// runner; sized at 0 on every builtin script before it did.
	return pinLine("faults", rep.FaultEvents, "crashes", rep.Crashes, "reconnects", rep.Reconnects,
		"probes", rep.ReadyProbes, "updates", rep.Updates, "rows", rep.Rows, "expected", rep.ExpectedRows,
		"completeness", rep.Completeness, "dup", rep.Duplicates, "gaps", rep.Gaps, "order", rep.OrderViolations,
		"value_mismatches", 0,
		"violations", len(rep.Violations), "stats", pinDigest(rep.Stats))
}

// TestPinnedDrillCounters replays every builtin script and every
// round-driven drill at four seeds against the recorded table.
func TestPinnedDrillCounters(t *testing.T) {
	drills := append(BuiltinNames(), "kill-a-shard", "partition-the-router", "crash-under-the-cache", "stuck-shard")
	for _, drill := range drills {
		want := pinned[drill]
		for i, seed := range pinSeeds {
			got := pinRun(t, drill, seed)
			if i >= len(want) || got != want[i] {
				t.Errorf("%s seed=%d:\n got %q", drill, seed, got)
			}
		}
	}
}
