package chaos

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// The round-driven drills are pure functions of the seed
// (TestScenarioRunsAreDeterministic), so every virtual-time counter they
// report can be pinned: a refactor of the harness must reproduce this table
// exactly. The two wall-clock socket drills are exempt; session-churn is
// not, though its clients stage from goroutines of their own, because its
// commands commit in (session, seq) order. The other lines were recorded
// before the six harnesses became one runner; two things have changed
// since, each reproduced on a copy of the old harnesses:
//
//   - stuck-shard's client-side counters. Its drain loop left after the
//     first stream that had nothing more buffered, so only the first of the
//     eight subscriptions was ever read (updates=15 at_fault=3 at_clear=7
//     degraded=4). With that loop fixed the old harness reports the numbers
//     below; the router's Stats digest never moved.
//   - the share drill's trace digest at seed 7 (was c69538a734a53afb): the
//     export carries session names, and every drill now names its clients
//     chaos-00, chaos-01, … as the script drill always did. The old share
//     harness with only that format changed exports the digest below.
//
// The router drills' stats digests (were f5008ca0e7b8e33a, 23e47b7984124456
// and 1ab74cb4cc6e93b5) changed with federation.Stats' JSON keys, which are
// snake_case now. The code before that change, with only the tags added,
// prints the digests below, so no counter moved.

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
	"session-churn": {
		"faults=0 crashes=1 reconnects=32 probes=3 updates=414 rows=2915 expected=0 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=cfe02d087d3df6d0",
		"faults=0 crashes=1 reconnects=32 probes=3 updates=415 rows=2904 expected=0 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=3da89ce4e9e0af5a",
		"faults=0 crashes=1 reconnects=32 probes=3 updates=410 rows=2967 expected=0 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=f34fe6dbcff314d6",
		"faults=0 crashes=1 reconnects=32 probes=3 updates=401 rows=3063 expected=0 completeness=1 dup=0 gaps=0 order=0 value_mismatches=0 violations=0 stats=3437f4ca49df0f9d",
	},
	"kill-a-shard": {
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=3f94071b05149a19",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=3f94071b05149a19",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=3f94071b05149a19",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=3f94071b05149a19",
	},
	"partition-the-router": {
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=5b905f2107772dbf",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=5b905f2107772dbf",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=5b905f2107772dbf",
		"updates=152 rows=90 dup=0 gaps=0 order=0 at_fault=42 violations=0 stats=5b905f2107772dbf",
	},
	"crash-under-the-cache": {
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf",
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf",
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf",
		"updates=107 rows=288 dup=0 gaps=0 order=0 at_fault=40 late_replayed=4 value_mismatches=0 violations=0 stats=1ad680e57cdb64bf traces=9860d6b85c6ebab2",
	},
	"stuck-shard": {
		"updates=152 dup=0 gaps=0 order=0 at_fault=32 at_clear=72 degraded=40 min_coverage=0.5 violations=0 stats=57b475dd375b2b7e",
		"updates=152 dup=0 gaps=0 order=0 at_fault=32 at_clear=72 degraded=40 min_coverage=0.5 violations=0 stats=57b475dd375b2b7e",
		"updates=152 dup=0 gaps=0 order=0 at_fault=32 at_clear=72 degraded=40 min_coverage=0.5 violations=0 stats=57b475dd375b2b7e",
		"updates=152 dup=0 gaps=0 order=0 at_fault=32 at_clear=72 degraded=40 min_coverage=0.5 violations=0 stats=57b475dd375b2b7e",
	},
}

// pinRun runs one drill at one seed and renders the counters that drill
// reports.
func pinRun(t *testing.T, name string, seed int64) string {
	t.Helper()
	drill, cfg := name, Config{Seed: seed, WALDir: t.TempDir()}
	if sc, err := Builtin(name); err == nil {
		drill, cfg.Script = ScriptDrill, sc
	}
	rep, err := Run(drill, cfg)
	if err != nil {
		t.Fatalf("%s seed=%d: %v", name, seed, err)
	}
	switch name {
	case "kill-a-shard", "partition-the-router":
		return pinLine("updates", rep.Updates, "rows", rep.Rows, "dup", rep.Duplicates, "gaps", rep.Gaps,
			"order", rep.OrderViolations, "at_fault", rep.UpdatesAtFault,
			"violations", len(rep.Violations), "stats", pinDigest(rep.Router))
	case "crash-under-the-cache":
		line := pinLine("updates", rep.Updates, "rows", rep.Rows, "dup", rep.Duplicates, "gaps", rep.Gaps,
			"order", rep.OrderViolations, "at_fault", rep.UpdatesAtFault, "late_replayed", rep.LateReplayed,
			"value_mismatches", rep.ValueMismatches,
			"violations", len(rep.Violations), "stats", pinDigest(rep.Share))
		if seed == 7 {
			line += " traces=" + pinDigest([]byte(rep.Traces))
		}
		return line
	case "stuck-shard":
		return pinLine("updates", rep.Updates, "dup", rep.Duplicates, "gaps", rep.Gaps,
			"order", rep.OrderViolations, "at_fault", rep.UpdatesAtFault, "at_clear", rep.UpdatesAtClear,
			"degraded", rep.DegradedUpdates, "min_coverage", rep.MinCoverage,
			"violations", len(rep.Violations), "stats", pinDigest(rep.Router))
	}
	return pinLine("faults", rep.FaultEvents, "crashes", rep.Crashes, "reconnects", rep.Reconnects,
		"probes", rep.ReadyProbes, "updates", rep.Updates, "rows", rep.Rows, "expected", rep.ExpectedRows,
		"completeness", rep.Completeness, "dup", rep.Duplicates, "gaps", rep.Gaps, "order", rep.OrderViolations,
		"value_mismatches", rep.ValueMismatches,
		"violations", len(rep.Violations), "stats", pinDigest(rep.Gateway))
}

// TestPinnedDrillCounters replays every builtin script and every
// round-driven drill at four seeds against the recorded table.
func TestPinnedDrillCounters(t *testing.T) {
	drills := append(BuiltinNames(), "session-churn", "kill-a-shard", "partition-the-router", "crash-under-the-cache", "stuck-shard")
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
