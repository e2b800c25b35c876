package ttmqo

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// These tests pin the docs to the code: every command must be documented,
// every flag a doc line attributes to a command must exist in that
// command's sources, and every flag a command declares must be documented
// somewhere. They are the drift check for README.md and doc.go.

// flagDeclRe matches a flag declaration, e.g. flag.String("json", …),
// fs.Bool("compare", …) or fs.IntVar(&o.side, "side", …).
var flagDeclRe = regexp.MustCompile(`\.(String|Int|Int64|Bool|Float64|Duration)(?:Var\(&[\w.]+, |\()"([a-z][a-z0-9-]*)"`)

// flagMentionRe matches a "-flag" token in prose or a shell example. The
// leading boundary excludes hyphenated words ("in-network", "base-station");
// a match must follow start-of-line, whitespace, a backtick, '(' or '['.
var flagMentionRe = regexp.MustCompile("(?:^|[\\s`(\\[])-([a-z][a-z0-9-]*)")

// commands returns the cmd/* program names.
func commands(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no commands under cmd/")
	}
	return names
}

// declaredFlags returns the set of flag names a command's sources declare.
func declaredFlags(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no sources for %s: %v", cmd, err)
	}
	flags := map[string]bool{}
	for _, src := range srcs {
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDeclRe.FindAllStringSubmatch(string(b), -1) {
			flags[m[2]] = true
		}
	}
	return flags
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsMentionEveryCommand: README.md and the package docs must list
// every program under cmd/.
func TestDocsMentionEveryCommand(t *testing.T) {
	readme := readDoc(t, "README.md")
	pkgdoc := readDoc(t, "doc.go")
	for _, cmd := range commands(t) {
		if !strings.Contains(readme, cmd) {
			t.Errorf("README.md does not mention %s", cmd)
		}
		if !strings.Contains(pkgdoc, cmd) {
			t.Errorf("doc.go does not mention %s", cmd)
		}
	}
}

// TestDocsListEveryStudy: README.md names every study of the evaluation
// registry as `-fig <name>`, so a study added to ttmqo-bench is documented.
func TestDocsListEveryStudy(t *testing.T) {
	readme := readDoc(t, "README.md")
	for _, name := range StudyNames() {
		if !regexp.MustCompile(`-fig ` + regexp.QuoteMeta(name) + `\b`).MatchString(readme) {
			t.Errorf("README.md does not name -fig %s", name)
		}
	}
}

// TestDesignListsEveryInternalPackage: DESIGN.md §2 is the module map, so
// every package under internal/ and every program under cmd/ has a row.
func TestDesignListsEveryInternalPackage(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	start := strings.Index(design, "## 2. System inventory")
	end := strings.Index(design, "## 3. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §2 module map")
	}
	section := design[start:end]
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	rows := commands(t)
	for i := range rows {
		rows[i] = "cmd/" + rows[i]
	}
	for _, e := range entries {
		if e.IsDir() {
			rows = append(rows, "internal/"+e.Name())
		}
	}
	for _, pkg := range rows {
		if !strings.Contains(section, "| `"+pkg+"` |") {
			t.Errorf("DESIGN.md §2 has no row for %s", pkg)
		}
	}
}

// TestDocsCoverConnectionWriter: DESIGN.md §2's gateway row must describe
// the connection writer as built — one reader and one writer goroutine per
// connection, the ready signal, the body cache with its identity key, the
// deadline armed at the socket write — §5 must carry the wire-ordering
// invariant with the tests that pin it, and the README's wire-protocol
// section must state the ordering clients may rely on.
func TestDocsCoverConnectionWriter(t *testing.T) {
	design := readDoc(t, "DESIGN.md")
	row := ""
	for _, line := range strings.Split(design, "\n") {
		if strings.HasPrefix(line, "| `internal/gateway` |") {
			row = line
		}
	}
	for _, want := range []string{
		"One reader + one writer goroutine per connection", "ready signal", "Session.Ready",
		"identity key", "backing pointer", "write deadline is armed at the socket write",
	} {
		if !strings.Contains(row, want) {
			t.Errorf("DESIGN.md §2 gateway row does not mention %q", want)
		}
	}
	invariants := design[strings.Index(design, "## 5. Key invariants"):]
	for _, want := range []string{
		"Wire ordering", "ack ≺ first", "precedes the `closed` notice", "No order\n   is promised across subscriptions",
		"TestWireOrdering", "TestAckPrecedesReplayedFrames", "TestStageMatchesUpdateFrame",
	} {
		if !strings.Contains(invariants, want) {
			t.Errorf("DESIGN.md §5 wire-ordering invariant does not mention %q", want)
		}
	}
	readme := readDoc(t, "README.md")
	wire := readme[strings.Index(readme, "### Wire protocol"):strings.Index(readme, "### Benchmarks")]
	for _, want := range []string{"Ordering on the wire", "precedes the subscription's first frame", "`closed` notice follows the last", "*across* subscriptions"} {
		if !strings.Contains(wire, want) {
			t.Errorf("README.md wire-protocol section does not state %q", want)
		}
	}
	// The pinned tests must exist under the names the docs cite.
	for file, names := range map[string][]string{
		"internal/gateway/writer_test.go":  {"func TestWireOrdering(", "func TestStageMatchesUpdateFrame("},
		"internal/share/wireorder_test.go": {"func TestAckPrecedesReplayedFrames("},
	} {
		src := readDoc(t, file)
		for _, name := range names {
			if !strings.Contains(src, name) {
				t.Errorf("%s does not define %s", file, name)
			}
		}
	}
}

// TestDocsFlagsExist: any "-flag" on a doc line that names a command must
// be declared by one of the commands named on that line; a "-flag" on a
// line naming no command must at least be declared by some command.
func TestDocsFlagsExist(t *testing.T) {
	cmds := commands(t)
	decls := map[string]map[string]bool{}
	union := map[string]bool{}
	for _, cmd := range cmds {
		decls[cmd] = declaredFlags(t, cmd)
		for f := range decls[cmd] {
			union[f] = true
		}
	}
	for _, path := range []string{"README.md", "doc.go"} {
		for i, line := range strings.Split(readDoc(t, path), "\n") {
			if strings.Contains(line, "go test") || strings.Contains(line, "bench/run.sh") {
				continue // go's own flags (-bench, -run, -race, …); the benchmark's (bench/README.md)
			}
			mentions := flagMentionRe.FindAllStringSubmatch(line, -1)
			if len(mentions) == 0 {
				continue
			}
			var onLine []string
			for _, cmd := range cmds {
				if strings.Contains(line, cmd) {
					onLine = append(onLine, cmd)
				}
			}
			for _, m := range mentions {
				flag := m[1]
				if len(onLine) == 0 {
					if !union[flag] {
						t.Errorf("%s:%d: -%s is not a flag of any command", path, i+1, flag)
					}
					continue
				}
				ok := false
				for _, cmd := range onLine {
					if decls[cmd][flag] {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("%s:%d: -%s is not a flag of %s", path, i+1, flag, strings.Join(onLine, "/"))
				}
			}
		}
	}
}

// TestCommandFlagsDocumented: every flag a command declares must be
// mentioned in README.md, doc.go, or the command's own doc comment — new
// flags must not ship undocumented.
func TestCommandFlagsDocumented(t *testing.T) {
	readme := readDoc(t, "README.md")
	pkgdoc := readDoc(t, "doc.go")
	for _, cmd := range commands(t) {
		var comment strings.Builder
		srcs, _ := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		for _, src := range srcs {
			for _, line := range strings.Split(readDoc(t, src), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "//") {
					comment.WriteString(line)
					comment.WriteString("\n")
				}
			}
		}
		docs := readme + pkgdoc + comment.String()
		for flag := range declaredFlags(t, cmd) {
			if !strings.Contains(docs, "-"+flag) {
				t.Errorf("%s: flag -%s is documented nowhere (README.md, doc.go, doc comment)", cmd, flag)
			}
		}
	}
}

// TestDocsCoverChaosScenarios: the EXPERIMENTS.md scenario walkthrough
// must cover every parser directive and every builtin scenario, both
// documents must name every drill of chaos.Run's table, and the README's
// chaos section must name the entry-point flags — the drift check for the
// fault-injection surface.
func TestDocsCoverChaosScenarios(t *testing.T) {
	doc := readDoc(t, "EXPERIMENTS.md")
	for _, d := range chaos.Directives() {
		if !strings.Contains(doc, d) {
			t.Errorf("EXPERIMENTS.md does not document scenario directive %q", d)
		}
	}
	readme := readDoc(t, "README.md")
	for _, n := range chaos.BuiltinNames() {
		if !strings.Contains(doc, n) {
			t.Errorf("EXPERIMENTS.md does not mention builtin scenario %q", n)
		}
		if !strings.Contains(readme, n) {
			t.Errorf("README.md does not mention builtin scenario %q", n)
		}
	}
	// The drills that need no script — the router, sharing and overload
	// ones — are one table behind chaos.Run.
	for _, n := range chaos.DrillNames() {
		if !strings.Contains(readme, n) {
			t.Errorf("README.md does not mention drill %q", n)
		}
		if !strings.Contains(doc, n) {
			t.Errorf("EXPERIMENTS.md does not walk through drill %q", n)
		}
	}
	for _, f := range []string{"-chaos", "-wal", "-crash-after", "-readtimeout"} {
		if !strings.Contains(readme, f) {
			t.Errorf("README.md does not mention chaos/recovery flag %s", f)
		}
	}
	if !strings.Contains(readme, "chaos-soak") {
		t.Error("README.md does not mention the chaos-soak make target")
	}
}

// TestDocsCoverWireFormat: the README's wire-protocol section must state
// the magic byte and wire version the codec actually uses and how a client
// negotiates binary, and both README.md and EXPERIMENTS.md must name the one benchmark of
// the serving stack — bench/run.sh, declared in BENCHMARK.json — and its
// four workloads. This is the drift check for the serving hot path.
func TestDocsCoverWireFormat(t *testing.T) {
	readme := readDoc(t, "README.md")
	experiments := readDoc(t, "EXPERIMENTS.md")
	// The documented constants must match the code.
	if want := fmt.Sprintf("0x%X", gateway.FrameMagic); !strings.Contains(readme, want) {
		t.Errorf("README.md does not state the frame magic byte %s", want)
	}
	if want := fmt.Sprintf("`%d`", gateway.WireVersion); !strings.Contains(readme, want) {
		t.Errorf("README.md does not state wire version %d", gateway.WireVersion)
	}
	if !strings.Contains(readme, `"wire":"binary"`) {
		t.Error(`README.md does not name the hello's "wire":"binary" negotiation`)
	}
	declared := readDoc(t, "BENCHMARK.json")
	workloads := []string{"sim_heavy", "fanout_heavy", "full_stack", "churn"}
	for name, doc := range map[string]string{"README.md": readme, "EXPERIMENTS.md": experiments} {
		for _, want := range append([]string{"bash bench/run.sh", "BENCHMARK.json"}, workloads...) {
			if !strings.Contains(doc, want) {
				t.Errorf("%s does not mention %s", name, want)
			}
		}
	}
	for _, w := range workloads {
		if !strings.Contains(declared, `"name": "`+w+`"`) {
			t.Errorf("BENCHMARK.json does not declare workload %s", w)
		}
	}
	if !strings.Contains(readme, "bench-smoke") {
		t.Error("README.md does not mention the bench-smoke make target")
	}
}

// TestDocsCoverFederation: README.md must document the sharded router
// tier — the flags that start it and the scaling figure — and
// EXPERIMENTS.md must walk through the router metric families (the
// federation drills are checked with the rest of the drill table, in
// TestDocsCoverChaosScenarios). This is the drift check for the federation
// surface.
func TestDocsCoverFederation(t *testing.T) {
	readme := readDoc(t, "README.md")
	experiments := readDoc(t, "EXPERIMENTS.md")
	for _, f := range []string{"-shards", "-waldir"} {
		if !strings.Contains(readme, f) {
			t.Errorf("README.md does not mention federation flag %s", f)
		}
	}
	if !strings.Contains(readme, "-fig federation") {
		t.Error("README.md does not mention the federation scaling figure (-fig federation)")
	}
	// The router metric families the docs walk through must be real
	// registered names — a rename in federation/telemetry.go must show up
	// here.
	for _, fam := range []string{
		"ttmqo_router_up",
		"ttmqo_router_alive_shards",
		"ttmqo_router_merge_latency_seconds",
		"ttmqo_router_merged_epochs_total",
		"ttmqo_router_partial_updates_total",
		"ttmqo_router_upstream_resumes_total",
		"ttmqo_shard_up",
		"ttmqo_shard_virtual_time_seconds",
	} {
		if !strings.Contains(readme+experiments, fam) {
			t.Errorf("docs do not mention federation metric family %s", fam)
		}
	}
}

// TestDocsCoverShare: README.md must document the cross-query sharing
// layer — the serve flags that mount it and the study figure — and
// EXPERIMENTS.md must walk through the study and the sharing rows of the
// benchmark's per-layer ledger (its drill is checked with the drill table). The metric families the
// docs name must be the registered ones. This is the drift check for
// the sharing/caching surface.
func TestDocsCoverShare(t *testing.T) {
	readme := readDoc(t, "README.md")
	experiments := readDoc(t, "EXPERIMENTS.md")
	for _, f := range []string{"-share", "-cache-window"} {
		if !strings.Contains(readme, f) {
			t.Errorf("README.md does not mention sharing flag %s", f)
		}
	}
	if !strings.Contains(readme, "-fig share") {
		t.Error("README.md does not mention the sharing study (-fig share)")
	}
	// The sharing rows of the benchmark's per-layer ledger must be named.
	for _, row := range []string{"share.fragment_reuse_ratio", "share.cache_hit_ratio"} {
		if !strings.Contains(experiments, row) {
			t.Errorf("EXPERIMENTS.md does not mention benchmark row %q", row)
		}
	}
	// The metric families the docs walk through must be real registered
	// names — a rename in share/telemetry.go must show up here.
	for _, fam := range []string{
		"ttmqo_share_fragment_reuse_ratio",
		"ttmqo_share_fragments_created_total",
		"ttmqo_share_fragments_reused_total",
		"ttmqo_share_fragments_active",
		"ttmqo_cache_hit_ratio",
		"ttmqo_cache_hits_total",
		"ttmqo_cache_replayed_epochs_total",
	} {
		if !strings.Contains(readme+experiments, fam) {
			t.Errorf("docs do not mention sharing metric family %s", fam)
		}
	}
	if !strings.Contains(readme, "FuzzCanonicalKey") {
		t.Error("README.md does not mention the canonical-key fuzz harness")
	}
	if !strings.Contains(readme, "make fuzz") {
		t.Error("README.md does not mention the fuzz make target")
	}
}

// TestDocsCoverResilience: README.md must document the overload layer —
// the admission-control flags and the herd test — and EXPERIMENTS.md must
// walk through the resilience metric families and the virtual-time herd
// that bounds the tail (its drills are checked with the drill table). This is the
// drift check for the overload/degraded-mode surface.
func TestDocsCoverResilience(t *testing.T) {
	readme := readDoc(t, "README.md")
	experiments := readDoc(t, "EXPERIMENTS.md")
	for _, f := range []string{"-max-staged", "-mailbox-deadline", "-max-live-subs", "-write-timeout"} {
		if !strings.Contains(readme, f) {
			t.Errorf("README.md does not mention admission-control flag %s", f)
		}
	}
	// The test that bounds the herd's tail must be named where the layer
	// is walked through, and exist under that name.
	for name, doc := range map[string]string{"README.md": readme, "EXPERIMENTS.md": experiments} {
		if !strings.Contains(doc, "TestOverloadBenchDeterministic") {
			t.Errorf("%s does not name TestOverloadBenchDeterministic", name)
		}
	}
	if !strings.Contains(readDoc(t, "internal/gateway/overloadbench_test.go"), "func TestOverloadBenchDeterministic(") {
		t.Error("internal/gateway/overloadbench_test.go does not define TestOverloadBenchDeterministic")
	}
	// The resilience metric families the docs walk through must be real
	// registered names — a rename in any tier's telemetry.go must show up
	// here.
	for _, fam := range []string{
		"ttmqo_resilience_shed_queue_total",
		"ttmqo_resilience_shed_deadline_total",
		"ttmqo_resilience_shed_subs_total",
		"ttmqo_resilience_shed_brownout_total",
		"ttmqo_resilience_brownout_escalations_total",
		"ttmqo_resilience_brownout_recoveries_total",
		"ttmqo_resilience_brownout_level",
		"ttmqo_resilience_breaker_trips_total",
		"ttmqo_resilience_breaker_probes_total",
		"ttmqo_resilience_breaker_recoveries_total",
		"ttmqo_resilience_breaker_state",
		"ttmqo_resilience_degraded_epochs_total",
		"ttmqo_resilience_shard_stalls_total",
		"ttmqo_resilience_stalled_shards",
		"ttmqo_resilience_router_shed_deadline_total",
		"ttmqo_resilience_replay_sheds_total",
		"ttmqo_resilience_share_shed_deadline_total",
		"ttmqo_resilience_share_degraded_epochs_total",
	} {
		if !strings.Contains(readme+experiments, fam) {
			t.Errorf("docs do not mention resilience metric family %s", fam)
		}
	}
}

// TestDocsCoverAdminPlane: README.md must document every admin HTTP
// endpoint the server actually serves, the flags that mount it, and the
// make targets of the drills that probe it (the smoke drill and the chaos
// soak); EXPERIMENTS.md must show the readiness drill.
// This is the drift check for the telemetry surface.
func TestDocsCoverAdminPlane(t *testing.T) {
	readme := readDoc(t, "README.md")
	experiments := readDoc(t, "EXPERIMENTS.md")
	for _, ep := range telemetry.Endpoints() {
		if !strings.Contains(readme, ep) {
			t.Errorf("README.md does not document admin endpoint %s", ep)
		}
		if !strings.Contains(experiments, ep) {
			t.Errorf("EXPERIMENTS.md does not mention admin endpoint %s", ep)
		}
	}
	for _, f := range []string{"-admin", "-crash-outage"} {
		if !strings.Contains(readme, f) {
			t.Errorf("README.md does not mention admin-plane flag %s", f)
		}
	}
	for _, target := range []string{"admin-smoke", "chaos-soak"} {
		if !strings.Contains(readme, target) {
			t.Errorf("README.md does not mention the %s make target", target)
		}
	}
	// The metric families the docs walk through must be real registered
	// names — a rename in telemetry.go must show up here.
	for _, fam := range []string{
		"ttmqo_gateway_up",
		"ttmqo_gateway_admitted_total",
		"ttmqo_wal_appends_total",
		"ttmqo_node_energy_joules",
		"ttmqo_energy_total_joules",
		"ttmqo_sim_virtual_time_seconds",
		"ttmqo_query_time_to_first_result_seconds",
		"ttmqo_gateway_recoveries_total",
	} {
		if !strings.Contains(readme+experiments, fam) {
			t.Errorf("docs do not mention metric family %s", fam)
		}
	}
}

// TestDocsCoverTracing: README.md must document the causal-tracing
// surface — the trace-dump flag, the smoke-drill make target, the
// per-trace JSON export and the wire provenance fields — and both docs
// must name every span kind a tier can record plus the tracing metric
// families and where tracing's cost is read. This is the drift check for the
// tracing/provenance surface.
func TestDocsCoverTracing(t *testing.T) {
	readme := readDoc(t, "README.md")
	experiments := readDoc(t, "EXPERIMENTS.md")
	if !strings.Contains(readme, "-trace-dump") {
		t.Error("README.md does not mention the -trace-dump flag")
	}
	for _, target := range []string{"trace-smoke"} {
		if !strings.Contains(readme, target) {
			t.Errorf("README.md does not mention the %s make target", target)
		}
	}
	for _, doc := range []string{readme, experiments} {
		if !strings.Contains(doc, "/tracez?trace=") {
			t.Error("docs do not show the per-trace JSON export path /tracez?trace=")
			break
		}
	}
	// The wire-level provenance fields must be documented by their JSON
	// names.
	for _, field := range []string{"trace_id", "prov", "shard_mask"} {
		if !strings.Contains(readme, field) {
			t.Errorf("README.md does not document the wire field %q", field)
		}
	}
	// Every span kind a tier can record must be named somewhere in the
	// docs — a new hop kind must not ship undocumented.
	for _, kind := range []string{
		tracing.KindSubscribe, tracing.KindAdmit, tracing.KindDedupHit,
		tracing.KindFirstResult, tracing.KindFanout, tracing.KindShed,
		tracing.KindWALReplay, tracing.KindCrash, tracing.KindReattach,
		tracing.KindShardFanout, tracing.KindMergeRelease, tracing.KindDegraded,
		tracing.KindBreakerOpen, tracing.KindBreakerClose,
		tracing.KindCSEHit, tracing.KindResidualAdmit, tracing.KindCacheReplay,
	} {
		if !strings.Contains(readme+experiments, kind) {
			t.Errorf("docs do not mention span kind %q", kind)
		}
	}
	// The tracing metric families the docs walk through must be real
	// registered names.
	for _, fam := range []string{
		"ttmqo_trace_spans_recorded_total",
		"ttmqo_trace_spans_dropped_total",
		"ttmqo_trace_hop_latency_seconds",
	} {
		if !strings.Contains(readme+experiments, fam) {
			t.Errorf("docs do not mention tracing metric family %s", fam)
		}
	}
	// Where tracing's cost shows must be named: the benchmark's ledger row
	// and the traced micro-benchmark.
	for name, doc := range map[string]string{"README.md": readme, "EXPERIMENTS.md": experiments} {
		for _, want := range []string{"bench.trace_overhead_pct", "BenchmarkPumpRound"} {
			if !strings.Contains(doc, want) {
				t.Errorf("%s does not mention %s", name, want)
			}
		}
	}
}
