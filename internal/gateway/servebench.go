package gateway

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// The serve benchmark suite — the perf trajectory of the serving hot path.
//
// RunServeBench measures the encode→fanout→write path with Go's benchmark
// harness (testing.Benchmark, usable outside `go test`) in both wire
// encodings back to back, and derives two machine-independent gauges:
//
//   - BinarySpeedup: JSON fan-out ns/op divided by binary fan-out ns/op,
//     measured in the same process seconds apart, so machine speed cancels
//     out of the ratio.
//   - AllocsPerMessage: heap allocations per delivered message on the
//     binary fan-out path (the ~0 target of the zero-allocation work).
//
// CompareServeBench gates those gauges (and per-row allocation counts)
// against a committed baseline (BENCH_serve.json): ratios and allocation
// counts are stable across machines, so CI can fail a >10% regression
// without chasing absolute nanoseconds. Absolute ns/op and msgs/sec are
// recorded for the trajectory but deliberately not gated.

// fanSubs is the subscriber fan-out factor the write benchmarks model: one
// update delivered to this many connections per op.
const fanSubs = 8

// burstN is the same-round burst the flush-batching benchmark models: a
// quantum spanning burstN epochs delivers that many updates per
// subscription per Advance, which the writer must flush as one write.
const burstN = 4

// roundSubs is the multi-subscription round the same gate models: one epoch
// delivered to this many subscriptions of one connection.
const roundSubs = 64

// countingWriter counts underlying writes — each one models a syscall on a
// real connection.
type countingWriter struct{ writes int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return len(p), nil
}

// ServeBenchRow is one benchmark measurement.
type ServeBenchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MsgsPerSec is the delivered-message rate implied by NsPerOp for rows
	// that deliver messages (fan-out and netload rows), 0 otherwise.
	MsgsPerSec float64 `json:"msgs_per_sec,omitempty"`
}

// ServeBenchReport is the serve suite's machine-readable outcome.
type ServeBenchReport struct {
	Rows []ServeBenchRow `json:"rows"`
	// BinarySpeedup is fanout/json ns/op ÷ fanout/binary ns/op — how many
	// times faster the binary hot path moves one update to 8 subscribers.
	BinarySpeedup float64 `json:"binary_speedup"`
	// AllocsPerMessage is heap allocations per delivered message on the
	// binary fan-out path.
	AllocsPerMessage float64 `json:"allocs_per_message"`
	// FlushesPerBurst is the number of underlying connection writes one
	// fan-out round costs — the worse of burstN same-round updates on one
	// subscription and one update on each of roundSubs subscriptions — the
	// syscall count the connection writer exists to bound. Gated absolutely
	// at <= 1.5 (one write per round plus measurement slack); a writer per
	// subscription cost roundSubs.
	FlushesPerBurst float64 `json:"flushes_per_burst"`
	// Sharing-tier gauges, filled by share.BenchServe (the share package
	// sits above this one, so the suite's sharing scenario lives there)
	// from a deterministic virtual-time scenario — exactly reproducible on
	// any machine. FragmentReuseRatio and CacheHitRatio mirror the
	// scenario's coordinator stats; WarmReplaySpeedup is the cold
	// late-subscriber TTFR divided by the cached-replay TTFR, gated
	// absolutely at >= 5.
	FragmentReuseRatio float64 `json:"fragment_reuse_ratio,omitempty"`
	CacheHitRatio      float64 `json:"cache_hit_ratio,omitempty"`
	WarmReplaySpeedup  float64 `json:"warm_replay_speedup,omitempty"`
	// TracingOverheadRatio is fanout/traced ns/op ÷ fanout/binary ns/op —
	// the throughput cost of stamping every delivered frame with its
	// causal-trace trailer (trace ID + provenance). Gated absolutely at
	// <= 1.05: tracing must cost at most 5% of hot-path throughput.
	TracingOverheadRatio float64 `json:"tracing_overhead_ratio,omitempty"`
	// TracedAllocsPerMessage is heap allocations per delivered message on
	// the traced binary fan-out path. Gated against AllocsPerMessage:
	// the trace trailer must add zero allocations per delivery.
	TracedAllocsPerMessage float64 `json:"traced_allocs_per_message"`
	// OverloadP99Ratio is the overload scenario's outcome: the p99
	// subscribe-to-first-result latency of a thundering herd admitted
	// through a bounded staging mailbox (shed clients retrying at round
	// boundaries) divided by the same latency unloaded, both in virtual
	// time. Gated absolutely at <= 4 — admission control must convert
	// overload into bounded delay for the tail, not starvation.
	OverloadP99Ratio float64 `json:"overload_p99_ratio,omitempty"`
	// Note reminds readers which fields are gated.
	Note string `json:"note"`
}

// ServeBenchConfig parametrizes RunServeBench.
type ServeBenchConfig struct {
	// Loadgen adds over-the-wire netload rows (binary and JSON, a second
	// or so each). Trajectory only — wall-clock TCP throughput is an
	// environment observation and is never gated.
	Loadgen bool
	// LoadgenDuration bounds each netload run (default 1s).
	LoadgenDuration time.Duration
}

// benchUpdate builds the canonical workload item: one acquisition epoch of
// a 16-node grid reading two attributes — the shape the paper's serving
// experiments fan out every epoch.
func benchUpdate() Update {
	rows := make([]query.Row, 16)
	for i := range rows {
		rows[i] = query.Row{
			Node: topology.NodeID(1 + i),
			Values: map[field.Attr]float64{
				field.AttrLight: 500 + float64(i)*3.25,
				field.AttrTemp:  20 + float64(i)*0.5,
			},
		}
	}
	return Update{Sub: 7, QueryID: 3, Seq: 42, At: 8192 * time.Millisecond, Rows: rows}
}

func row(name string, r testing.BenchmarkResult, msgsPerOp int) ServeBenchRow {
	ns := float64(r.NsPerOp())
	out := ServeBenchRow{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if msgsPerOp > 0 && ns > 0 {
		out.MsgsPerSec = float64(msgsPerOp) * 1e9 / ns
	}
	return out
}

// RunServeBench measures the serving hot path and returns the report.
func RunServeBench(cfg ServeBenchConfig) (*ServeBenchReport, error) {
	u := benchUpdate()
	rep := &ServeBenchReport{
		Note: "gated: binary_speedup, allocs_per_message, tracing_overhead_ratio, traced_allocs_per_message, binary rows' allocs_per_op, warm_replay_speedup, fragment_reuse_ratio, cache_hit_ratio, overload_p99_ratio; ns_per_op and msgs_per_sec are trajectory only",
	}

	// encode: build one frame/line from the update, no I/O.
	encBin := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 4096)
		for i := 0; i < b.N; i++ {
			frame := sealFrame(appendUpdateFrame(buf[:0], &u))
			if len(frame) == 0 {
				b.Fatal("empty frame")
			}
		}
	})
	rep.Rows = append(rep.Rows, row("encode/binary", encBin, 0))

	encJSON := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(wireUpdate(u)); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Rows = append(rep.Rows, row("encode/json", encJSON, 0))

	// fanout: one update to each of fanSubs connections (discard-backed),
	// through the connection writer's own pump — channel receive, encode,
	// stage, flush. This is exactly what Server.handle's writer goroutine
	// executes per epoch.
	type benchConn struct {
		w   *connWriter
		chs []chan Update // one per subscription stream
	}
	mkConn := func(out io.Writer, binary bool, streams, buffer int) benchConn {
		c := benchConn{w: newConnWriter(out)}
		c.w.binary = binary
		for i := 0; i < streams; i++ {
			ch := make(chan Update, buffer)
			c.chs = append(c.chs, ch)
			c.w.streams = append(c.w.streams, stream{&Subscription{id: SubID(i + 1)}, ch})
		}
		return c
	}
	// deliver is one round: per updates pushed to every stream, then each
	// connection pumped once.
	deliver := func(b *testing.B, conns []benchConn, upd *Update, per int) {
		for _, c := range conns {
			for _, ch := range c.chs {
				for j := 0; j < per; j++ {
					ch <- *upd
				}
			}
			if err := c.w.pump(); err != nil {
				b.Fatal(err)
			}
		}
	}
	fanout := func(upd *Update, binary bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			conns := make([]benchConn, fanSubs)
			for i := range conns {
				conns[i] = mkConn(io.Discard, binary, 1, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deliver(b, conns, upd, 1)
			}
		}
	}
	// The gated ratios (traced/binary at 5%, json/binary at 10%) are
	// tighter than the run-to-run noise of benchmarks measured seconds
	// apart. All three fan-out variants are therefore measured
	// interleaved, min-of-3: scheduler and frequency drift hit every
	// variant alike, and each minimum is the stable estimate of what that
	// code path actually costs.
	ut := u
	ut.Trace = 0xC0FFEE
	ut.Prov = tracing.Prov{Shards: 0b11, Frags: 2, Reused: 1, CacheHit: true, Rung: 1}
	var fanBin, fanTraced, fanJSON testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		rb := testing.Benchmark(fanout(&u, true))
		if i == 0 || rb.NsPerOp() < fanBin.NsPerOp() {
			fanBin = rb
		}
		rt := testing.Benchmark(fanout(&ut, true))
		if i == 0 || rt.NsPerOp() < fanTraced.NsPerOp() {
			fanTraced = rt
		}
		rj := testing.Benchmark(fanout(&u, false))
		if i == 0 || rj.NsPerOp() < fanJSON.NsPerOp() {
			fanJSON = rj
		}
	}
	rep.Rows = append(rep.Rows, row("fanout/binary", fanBin, fanSubs))

	rep.Rows = append(rep.Rows, row("fanout/json", fanJSON, fanSubs))

	// fanout/traced: the same binary fan-out with every frame carrying the
	// causal-trace trailer — trace ID plus a full provenance stamp (shard
	// mask, fragment and reuse counts, cache bit, brownout rung). The
	// trailer rides a reused scratch buffer, so the traced path must stay
	// allocation-free and within 5% of untraced throughput. Measured
	// interleaved with fanout/binary above.
	rep.Rows = append(rep.Rows, row("fanout/traced", fanTraced, fanSubs))

	// fanout/burst and fanout/round: one round pumped onto one connection —
	// burstN same-round updates of one subscription, and one update for
	// each of roundSubs subscriptions of one query. The counting writer
	// measures the actual underlying writes (syscalls) per round; either
	// shape must cost ~one.
	round := func(name string, streams, per int) float64 {
		cw := &countingWriter{}
		conns := []benchConn{mkConn(cw, true, streams, per)}
		var writes float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			cw.writes = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deliver(b, conns, &u, per)
			}
			b.StopTimer()
			writes = float64(cw.writes) / float64(b.N)
		})
		rep.Rows = append(rep.Rows, row(name, r, streams*per))
		return writes
	}
	rep.FlushesPerBurst = max(round("fanout/burst", 1, burstN), round("fanout/round", roundSubs, 1))

	// wal: append one lifecycle record through the reused frame buffer vs
	// the JSON marshalling it replaced.
	rec := walRecord{Op: walOpSubscribe, At: 8192 * 1e6, Sess: "client-00042", Sub: 17,
		Query: "SELECT light, temp WHERE light > 200 EPOCH DURATION 8192ms"}
	walBin := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		w := &wal{w: bufio.NewWriterSize(io.Discard, 64*1024)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Rows = append(rep.Rows, row("wal/binary", walBin, 0))

	walJSON := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bw := bufio.NewWriterSize(io.Discard, 64*1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j, err := json.Marshal(rec)
			if err != nil {
				b.Fatal(err)
			}
			j = append(j, '\n')
			if _, err := bw.Write(j); err != nil {
				b.Fatal(err)
			}
		}
	})
	rep.Rows = append(rep.Rows, row("wal/json", walJSON, 0))

	// intern: dedup-cache lookup via interned pointer vs string key.
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT light, temp WHERE light > %d GROUP BY nodeid EPOCH DURATION 8192ms", i)
	}
	internB := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		tab := newInternTable(len(keys))
		m := make(map[*internedKey]*shared, len(keys))
		ks := make([]*internedKey, len(keys))
		for i, k := range keys {
			ks[i] = tab.intern(k)
			m[ks[i]] = &shared{}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m[ks[i%len(ks)]] == nil {
				b.Fatal("miss")
			}
		}
	})
	rep.Rows = append(rep.Rows, row("dedup/interned", internB, 0))

	stringB := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		m := make(map[string]*shared, len(keys))
		for _, k := range keys {
			m[k] = &shared{}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m[keys[i%len(keys)]] == nil {
				b.Fatal("miss")
			}
		}
	})
	rep.Rows = append(rep.Rows, row("dedup/string", stringB, 0))

	if fanBin.NsPerOp() > 0 {
		rep.BinarySpeedup = float64(fanJSON.NsPerOp()) / float64(fanBin.NsPerOp())
		rep.TracingOverheadRatio = float64(fanTraced.NsPerOp()) / float64(fanBin.NsPerOp())
	}
	rep.AllocsPerMessage = float64(fanBin.AllocsPerOp()) / float64(fanSubs)
	rep.TracedAllocsPerMessage = float64(fanTraced.AllocsPerOp()) / float64(fanSubs)

	// overload: the deterministic virtual-time admission storm. Both rows
	// report virtual nanoseconds (like the share/ttfr rows), and the
	// herd-to-unloaded ratio is the gated gauge.
	ov, err := runOverloadBench()
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows,
		ServeBenchRow{Name: "overload/first-result-unloaded", NsPerOp: float64(ov.Unloaded.Nanoseconds())},
		ServeBenchRow{Name: "overload/p99-under-herd", NsPerOp: float64(ov.HerdP99.Nanoseconds())},
	)
	if ov.Unloaded > 0 {
		rep.OverloadP99Ratio = float64(ov.HerdP99) / float64(ov.Unloaded)
	}

	if cfg.Loadgen {
		d := cfg.LoadgenDuration
		if d <= 0 {
			d = time.Second
		}
		for _, jsonWire := range []bool{false, true} {
			lr, err := RunNetLoadgen(NetLoadConfig{
				Clients:       16,
				SubsPerClient: 2,
				Duration:      d,
				Seed:          1,
				JSON:          jsonWire,
			})
			if err != nil {
				return nil, err
			}
			name := "netload/binary"
			if jsonWire {
				name = "netload/json"
			}
			rep.Rows = append(rep.Rows, ServeBenchRow{Name: name, MsgsPerSec: lr.Throughput()})
		}
	}
	return rep, nil
}

// String renders the report as the benchmark table the CLI prints.
func (r *ServeBenchReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %12s %10s %10s %14s\n", "benchmark", "ns/op", "B/op", "allocs/op", "msgs/sec")
	for _, row := range r.Rows {
		msgs := ""
		if row.MsgsPerSec > 0 {
			msgs = fmt.Sprintf("%14.0f", row.MsgsPerSec)
		}
		fmt.Fprintf(&sb, "%-16s %12.1f %10d %10d %14s\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, msgs)
	}
	fmt.Fprintf(&sb, "binary speedup (fanout json/binary): %.1fx\n", r.BinarySpeedup)
	fmt.Fprintf(&sb, "allocs per delivered message (binary): %.2f\n", r.AllocsPerMessage)
	if r.TracingOverheadRatio > 0 {
		fmt.Fprintf(&sb, "tracing overhead (fanout traced/binary): %.3fx\n", r.TracingOverheadRatio)
		fmt.Fprintf(&sb, "allocs per delivered message (traced): %.2f\n", r.TracedAllocsPerMessage)
	}
	if r.FlushesPerBurst > 0 {
		fmt.Fprintf(&sb, "connection writes per round (%d-update burst, %d-subscription round): %.2f\n", burstN, roundSubs, r.FlushesPerBurst)
	}
	if r.WarmReplaySpeedup > 0 {
		fmt.Fprintf(&sb, "fragment reuse ratio (share scenario): %.2f\n", r.FragmentReuseRatio)
		fmt.Fprintf(&sb, "cache hit ratio (share scenario): %.2f\n", r.CacheHitRatio)
		fmt.Fprintf(&sb, "warm replay speedup (cold ttfr / warm ttfr): %.1fx\n", r.WarmReplaySpeedup)
	}
	if r.OverloadP99Ratio > 0 {
		fmt.Fprintf(&sb, "overload p99 ratio (herd p99 / unloaded first result): %.2fx\n", r.OverloadP99Ratio)
	}
	return sb.String()
}

// CompareServeBench checks current against a committed baseline and returns
// the list of violations (empty = pass). tol is the fractional regression
// allowed on gated gauges (0.10 = 10%). Allocation gauges additionally get
// a half-allocation absolute slack so a 0-alloc baseline doesn't turn
// measurement noise into failures — but a real regression to 1+ allocs per
// op still trips it.
func CompareServeBench(baseline, current *ServeBenchReport, tol float64) []string {
	var bad []string
	if current.BinarySpeedup < baseline.BinarySpeedup*(1-tol) {
		bad = append(bad, fmt.Sprintf(
			"binary_speedup regressed: %.2fx, baseline %.2fx (tolerance %.0f%%)",
			current.BinarySpeedup, baseline.BinarySpeedup, tol*100))
	}
	if current.AllocsPerMessage > baseline.AllocsPerMessage*(1+tol)+0.5 {
		bad = append(bad, fmt.Sprintf(
			"allocs_per_message regressed: %.2f, baseline %.2f",
			current.AllocsPerMessage, baseline.AllocsPerMessage))
	}
	// The acceptance bar is absolute, independent of the baseline.
	if current.AllocsPerMessage > 2 {
		bad = append(bad, fmt.Sprintf(
			"allocs_per_message %.2f exceeds the absolute bound of 2", current.AllocsPerMessage))
	}
	// Tracing gates are absolute and internal to one run: the traced and
	// untraced fan-outs are measured seconds apart in the same process, so
	// machine speed cancels from the ratio. Stamping trace trailers may
	// cost at most 5% throughput and zero extra allocations per delivery.
	if current.TracingOverheadRatio > 1.05 {
		bad = append(bad, fmt.Sprintf(
			"tracing_overhead_ratio %.3fx exceeds the absolute bound of 1.05x (trace trailer too expensive)",
			current.TracingOverheadRatio))
	}
	if current.TracedAllocsPerMessage > current.AllocsPerMessage+0.1 {
		bad = append(bad, fmt.Sprintf(
			"traced_allocs_per_message %.2f exceeds the untraced %.2f: the trace trailer allocates",
			current.TracedAllocsPerMessage, current.AllocsPerMessage))
	}
	// Flush batching is gated absolutely too: a same-round burst must cost
	// ~one connection write, not one per update.
	if current.FlushesPerBurst > 1.5 {
		bad = append(bad, fmt.Sprintf(
			"flushes_per_burst %.2f exceeds the absolute bound of 1.5 (per-update flush regression)",
			current.FlushesPerBurst))
	}
	// The sharing scenario is deterministic virtual time, so its gauges
	// carry no measurement noise: cached replay must keep a late
	// subscriber's first result at least 5x faster than a cold epoch wait,
	// and the CSE/cache ratios must not fall below the committed baseline.
	if current.WarmReplaySpeedup > 0 && current.WarmReplaySpeedup < 5 {
		bad = append(bad, fmt.Sprintf(
			"warm_replay_speedup %.2fx below the absolute bound of 5x (cached replay regression)",
			current.WarmReplaySpeedup))
	}
	if current.FragmentReuseRatio < baseline.FragmentReuseRatio*(1-tol) {
		bad = append(bad, fmt.Sprintf(
			"fragment_reuse_ratio regressed: %.3f, baseline %.3f",
			current.FragmentReuseRatio, baseline.FragmentReuseRatio))
	}
	if current.CacheHitRatio < baseline.CacheHitRatio*(1-tol) {
		bad = append(bad, fmt.Sprintf(
			"cache_hit_ratio regressed: %.3f, baseline %.3f",
			current.CacheHitRatio, baseline.CacheHitRatio))
	}
	// The overload scenario is virtual time as well, so the bound is
	// absolute: a herd squeezed through the bounded staging mailbox must
	// see its p99 first result within 4x the unloaded latency — shedding
	// that starves the tail instead of delaying it trips this.
	if current.OverloadP99Ratio > 4 {
		bad = append(bad, fmt.Sprintf(
			"overload_p99_ratio %.2fx exceeds the absolute bound of 4x (herd tail starved)",
			current.OverloadP99Ratio))
	}
	base := make(map[string]ServeBenchRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.Name] = r
	}
	for _, r := range current.Rows {
		b, ok := base[r.Name]
		if !ok || !strings.HasSuffix(r.Name, "/binary") {
			continue // new rows and non-binary rows are not gated
		}
		if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol)+0.5 {
			bad = append(bad, fmt.Sprintf(
				"%s allocs/op regressed: %d, baseline %d", r.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return bad
}
