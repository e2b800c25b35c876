GO ?= go

.PHONY: build test race vet fmt-check bench bench-once bench-parallel bench-smoke bench-layouts chaos-soak admin-smoke trace-smoke fuzz loc clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every Go file in the tree is gofmt-formatted: any name printed fails.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "not gofmt-formatted:"; echo "$$out"; exit 1; fi

# The Go benchmarks: the figure harnesses, parser, optimizer and simulator
# at the root, the serving hot path's micro view (one frame encode, one
# 64-subscription round) in internal/gateway, and the base station's (one
# epoch mapped to its members in internal/core, one collection window closed
# in internal/network), and the composed tiers' round without sockets (the
# router's at two shard sizes in internal/federation; the full_stack shape
# through coordinator and router in internal/share). The simulator has two
# rows at the root: BenchmarkSimulationRound144 (the sim_heavy shape,
# acquisition relays) and BenchmarkSimulationRoundAgg (one full_stack shard,
# in-network aggregation), each also reporting radio handler calls per
# delivered transmission (calls/tx); below them, the medium's one
# transmission (BenchmarkDeliver: a relay unicast and a broadcast, with
# calls/op) in internal/radio and the event queue under sim_heavy's event
# mix (BenchmarkEngine) in internal/sim. Trajectory only; the end-to-end
# benchmark is `bash bench/run.sh`.
BENCH_PKGS = . ./internal/gateway ./internal/core ./internal/network ./internal/radio ./internal/sim ./internal/federation ./internal/share

bench:
	$(GO) test -run '^$$' -bench . -benchmem $(BENCH_PKGS)

# Every benchmark above, one iteration each: `go test ./...` only compiles
# them, so this is what fails when one panics or stops matching an API.
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# The parallel-runner benchmarks: the figure sweep at 1 worker vs one per
# CPU, and the field generator's hot path.
bench-parallel:
	$(GO) test -run '^$$' -bench 'Figure3Parallel|FieldReading' -benchmem .

# The end-to-end benchmark under randomized function layouts: the linker's
# layout alone moves sim_heavy's throughput by about ±5 % (a default-layout
# binary can read 10 % above every randomized one of the same source), so a
# few-percent claim is checked layout by layout, on both commits. For each N
# in LAYOUTS this builds bench/ as bench/run.sh does — same environment, same
# .bench_build/ — linked with -randlayout=N, runs workload W and prints
# updates_per_s and cpu_s_per_mupdate. ARGS go to the benchmark.
#   make bench-layouts W=sim_heavy LAYOUTS="1 2 3"
W ?= sim_heavy
LAYOUTS ?= 1 2 3
ARGS ?= -trace 0 -seconds 15

bench-layouts:
	@out="$(CURDIR)/.bench_build"; mkdir -p "$$out"; \
	for n in $(LAYOUTS); do \
		(cd bench && GOCACHE="$$out/gocache" GOPATH="$$out/gopath" XDG_CONFIG_HOME="$$out/config" \
			GOTOOLCHAIN=local GOFLAGS= $(GO) build -ldflags=-randlayout=$$n -o "$$out/ttmqo-e2e-layout$$n" .) || exit 1; \
		line="$$("$$out/ttmqo-e2e-layout$$n" -workload $(W) $(ARGS) | tail -n 1)" || exit 1; \
		metric() { echo "$$line" | sed -n "s/.*\"$$1\":{\"value\":\([^,]*\),.*/\1/p"; }; \
		echo "layout=$$n workload=$(W) updates_per_s=$$(metric updates_per_s) cpu_s_per_mupdate=$$(metric cpu_s_per_mupdate)"; \
	done

# The admin-plane smoke drill: build the real ttmqo-serve binary, boot it
# with -admin and the built-in crash drill, curl every endpoint, and assert
# the readiness transition (200 -> 503 during the outage -> 200 after WAL
# replay) over the process boundary.
admin-smoke:
	$(GO) test -race -count=1 -v -run TestAdminSmoke ./cmd/ttmqo-serve

# The causal-tracing smoke drill: boot the real binary as a sharing
# coordinator over a two-shard federation router, subscribe over the TCP
# wire with a client-pinned trace ID, and assert the end-to-end story from
# outside the process — the ID echoes on the ack, every update carries it
# plus a provenance stamp, and /tracez?trace=<id> exports a span chain
# walking gateway -> router -> share up to the share/subscribe root.
trace-smoke:
	$(GO) test -race -count=1 -v -run TestTraceSmoke ./cmd/ttmqo-serve

# The chaos soak under the race detector: scripted fault scenarios — node
# churn, loss bursts, partitions, and gateway crash/recover cycles mid-run —
# with the delivery invariants (no duplicates, no sequence gaps, bounded
# completeness loss, no goroutine leaks) asserted after the drain. The
# federation soak reruns the router-tier drills (kill-a-shard,
# partition-the-router) across seeds under the same invariants, and the
# share soak crashes the gateway underneath the sharing coordinator while
# cached replay and live delivery interleave. The session-churn soak has 32
# sessions stage subscribes and unsubscribes from goroutines of their own
# against one gateway, crashes it mid-run, checks the readiness probes and
# the final /metrics exposition, and requires two same-seed runs to report
# byte-identical results. The overload soak swaps fault injection for
# demand: thundering-herd admission storms, a slow-loris subscriber that
# stops reading, and a shard wedged without crashing, with
# the resilience invariants (bounded mailbox depth, honored retry-after,
# degraded-not-deadlocked watermarks) asserted on top of the delivery ones.
#
# `go test -run` exits 0 when its regex matches nothing, so a renamed soak
# test would silently drop out: every name below must be listed by the
# package before anything runs.
CHAOS_SOAK = TestChaosSoak|TestCrashRecoveryInvariants|TestSessionChurnChaosSoak|TestFederationChaosSoak|TestShareChaosSoak|TestOverloadChaosSoak

chaos-soak:
	@list="$$($(GO) test -list '$(CHAOS_SOAK)' ./internal/chaos)"; \
	for t in $(subst |, ,$(CHAOS_SOAK)); do \
		echo "$$list" | grep -qx "$$t" || { echo "chaos-soak: no test named $$t in ./internal/chaos" >&2; exit 1; }; \
	done
	$(GO) test -race -count=1 -v -run '$(CHAOS_SOAK)' ./internal/chaos

# A short fuzz pass over every fuzz target in the repository: the query
# parser's robustness invariants (never panic; accepted input round-trips),
# query canonicalization (Normalize equals its map-and-sort reference on
# arbitrary lists, is idempotent, and renders one text however they were
# ordered), the canonical dedup/CSE key's byte-stability under predicate
# reordering, duplicate entries and whitespace noise, the wire codec
# (arbitrary bytes never panic the frame decoder; requests round-trip both
# encodings), the partial-aggregate algebra (Finish over any partition equals
# direct evaluation) and the tier-1 optimizer (after any Insert / InsertBatch
# / Terminate script, with the histograms moving in between, the optimizer
# and the reference optimizer agree on every Change, table entry and float,
# and the bookkeeping, cost and benefit invariants hold). The seeded corpora
# live in the fuzz tests themselves; this budget is sized for CI.
#
# The targets are not named here: the recipe runs whatever `go test -list`
# finds, so a new Fuzz function cannot be left out.
fuzz:
	@list="$$($(GO) test -list '^Fuzz' ./...)" || { echo "$$list" >&2; exit 1; }; \
	echo "$$list" \
		| awk '/^Fuzz/ { f[++n] = $$1 } /^ok/ { for (i = 1; i <= n; i++) print $$2, f[i]; n = 0 }' \
		| while read pkg f; do \
			echo "$(GO) test -run '^\$$' -fuzz '^$$f\$$' -fuzztime 10s $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s $$pkg || exit 1; \
		done

# The end-to-end benchmark is a module of its own (bench/, `replace repro =>
# ../`) that root `go test ./...` does not build: vet and test it here so an
# API refactor cannot silently break it.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Code lines — non-blank, non-comment, non-test Go — per package under
# internal/ and cmd/, and the total: the ROADMAP's tracked size number.
loc:
	@for d in internal/* cmd/*; do \
		ls $$d/*.go 2>/dev/null | grep -v _test.go | xargs awk -v d=$$d ' \
			{ l = $$0; sub(/^[ \t]+/, "", l) } \
			inb { if (l ~ /\*\//) inb = 0; next } \
			l == "" || l ~ /^\/\// { next } \
			l ~ /^\/\*/ { if (l !~ /\*\//) inb = 1; next } \
			{ n++ } \
			END { printf "%6d  %s\n", n, d }'; \
	done | awk '{ print; t += $$1 } END { printf "%6d  total\n", t }'

clean:
	rm -f ttmqo-bench ttmqo-sim ttmqo-workload ttmqo-shell ttmqo-serve
