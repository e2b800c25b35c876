package tracing

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestDeterministicIDs: trace and span IDs are pure functions of their
// causal coordinates, never zero, and distinct coordinates hash apart.
func TestDeterministicIDs(t *testing.T) {
	if got, again := TraceID("alice", 3), TraceID("alice", 3); got != again || got == 0 {
		t.Fatalf("TraceID not a stable non-zero function: %d vs %d", got, again)
	}
	if TraceID("alice", 3) == TraceID("alice", 4) {
		t.Fatal("different subscriptions share a trace ID")
	}
	if TraceID("alice", 3) == TraceID("bob", 3) {
		t.Fatal("different sessions share a trace ID")
	}
	a := SpanID(7, TierGateway, KindAdmit, NoShard, 2048)
	if a == 0 || a != SpanID(7, TierGateway, KindAdmit, NoShard, 2048) {
		t.Fatalf("SpanID not a stable non-zero function: %d", a)
	}
	for _, other := range []uint64{
		SpanID(8, TierGateway, KindAdmit, NoShard, 2048),  // trace
		SpanID(7, TierShare, KindAdmit, NoShard, 2048),    // tier
		SpanID(7, TierGateway, KindFanout, NoShard, 2048), // kind
		SpanID(7, TierGateway, KindAdmit, 2, 2048),        // shard
		SpanID(7, TierGateway, KindAdmit, NoShard, 4096),  // time
	} {
		if other == a {
			t.Fatalf("span IDs collide across distinct coordinates: %d", a)
		}
	}
}

// TestRecorderRing: the flight recorder holds the most recent spans in
// insertion order, evicts FIFO past capacity, and counts what it dropped.
func TestRecorderRing(t *testing.T) {
	r := New(TierGateway, 4)
	for i := 0; i < 10; i++ {
		r.Record(Span{Trace: 1, Kind: KindFanout, Shard: NoShard, AtMS: int64(i), Seq: uint64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(snap))
	}
	for i, s := range snap {
		if want := int64(6 + i); s.AtMS != want {
			t.Fatalf("snapshot[%d].AtMS = %d, want %d (most recent window in order)", i, s.AtMS, want)
		}
		if s.Tier != TierGateway {
			t.Fatalf("recorder did not stamp its tier: %q", s.Tier)
		}
		if s.ID == 0 {
			t.Fatal("recorded span kept a zero ID")
		}
	}
	recorded, dropped := r.Stats()
	if recorded != 10 || dropped != 6 {
		t.Fatalf("stats = (%d recorded, %d dropped), want (10, 6)", recorded, dropped)
	}

	// An explicit ID and tier are preserved, and Record echoes the ID.
	if id := r.Record(Span{Trace: 2, ID: 99, Tier: TierShare, Kind: KindSubscribe, Shard: NoShard}); id != 99 {
		t.Fatalf("Record returned %d for an explicit ID, want 99", id)
	}
	last := r.Snapshot()[3]
	if last.ID != 99 || last.Tier != TierShare {
		t.Fatalf("explicit ID/tier not preserved: %+v", last)
	}
}

// TestNilRecorderSafe: every method on a nil recorder is a no-op — that is
// the whole mechanism for running a tier untraced.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if id := r.Record(Span{Trace: 1, Kind: KindAdmit}); id != 0 {
		t.Fatalf("nil Record returned %d, want 0", id)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot returned %v", s)
	}
	if rec, drop := r.Stats(); rec != 0 || drop != 0 {
		t.Fatalf("nil Stats = (%d, %d)", rec, drop)
	}
	if tier := r.Tier(); tier != "" {
		t.Fatalf("nil Tier = %q", tier)
	}
	if r.Tail(3) != nil || len(r.CountByKind()) != 0 || r.Summary() != "0 events" {
		t.Fatal("nil event log not empty")
	}
	e := Collect(r, nil)
	if e.Spans != 0 || len(e.Traces) != 0 {
		t.Fatalf("Collect over nil recorders produced %+v", e)
	}
}

// TestCollectDeterministic: the export groups spans by trace, sorts both
// traces and spans on the total order regardless of recorder order, and
// its JSON form is byte-stable.
func TestCollectDeterministic(t *testing.T) {
	build := func(order []int) *Export {
		gw := New(TierGateway, 0)
		sh := New(TierShare, 0)
		spans := []Span{
			{Trace: 2, Kind: KindSubscribe, Shard: NoShard, AtMS: 1024},
			{Trace: 1, Kind: KindAdmit, Shard: NoShard, AtMS: 2048},
			{Trace: 1, Kind: KindSubscribe, Shard: NoShard, AtMS: 1024},
			{Trace: 0, Kind: KindFanout, Shard: NoShard, AtMS: 4096},
		}
		for _, idx := range order {
			rec := gw
			if idx%2 == 1 {
				rec = sh
			}
			rec.Record(spans[idx])
		}
		return Collect(sh, gw)
	}
	e1 := build([]int{0, 1, 2, 3})
	e2 := build([]int{3, 2, 1, 0})
	if !bytes.Equal(e1.JSON(), e2.JSON()) {
		t.Fatalf("export depends on recording order:\n%s\nvs\n%s", e1.JSON(), e2.JSON())
	}
	if e1.Spans != 4 || len(e1.Traces) != 3 {
		t.Fatalf("export shape: %d spans across %d traces, want 4 across 3", e1.Spans, len(e1.Traces))
	}
	for i := 1; i < len(e1.Traces); i++ {
		if e1.Traces[i-1].Trace >= e1.Traces[i].Trace {
			t.Fatal("traces not sorted by ID")
		}
	}
	tr, ok := e1.Trace(1)
	if !ok || len(tr.Spans) != 2 {
		t.Fatalf("Trace(1) = %+v, %v", tr, ok)
	}
	if tr.Spans[0].Kind != KindSubscribe || tr.Spans[1].Kind != KindAdmit {
		t.Fatalf("spans not sorted on (AtMS, ...): %+v", tr.Spans)
	}
	if _, ok := e1.Trace(42); ok {
		t.Fatal("Trace(42) found a trace that was never recorded")
	}
}

// TestRenderTrees: the text renderer nests children under their parents
// and labels the tier-event group.
func TestRenderTrees(t *testing.T) {
	r := New(TierShare, 0)
	root := r.Record(Span{Trace: 5, Kind: KindSubscribe, Shard: NoShard, AtMS: 1024})
	r.Record(Span{Trace: 5, Parent: root, Kind: KindResidualAdmit, Shard: NoShard, AtMS: 2048, Note: "frag"})
	r.Record(Span{Trace: 0, Kind: KindCrash, Shard: NoShard, AtMS: 4096})

	var sb strings.Builder
	RenderTrees(&sb, Collect(r))
	out := sb.String()
	for _, want := range []string{
		"3 spans across 2 traces",
		"tier events (untraced):",
		"trace 0000000000000005 (2 spans):",
		"share/subscribe",
		"share/subscribe\n    +2.048s   share/residual-admit",
		"(Δ1.024s)",
		"frag",
		"share/crash",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trees lack %q:\n%s", want, out)
		}
	}
}

// TestProvShardList covers the bitmask expansion and the empty check.
func TestProvShardList(t *testing.T) {
	if (Prov{}).Empty() != true {
		t.Fatal("zero Prov not Empty")
	}
	if (Prov{CacheHit: true}).Empty() {
		t.Fatal("cache-hit Prov reported Empty")
	}
	if got := (Prov{}).ShardList(); got != nil {
		t.Fatalf("empty mask expanded to %v", got)
	}
	p := Prov{Shards: 1<<0 | 1<<3 | 1<<63}
	if got, want := p.ShardList(), []int{0, 3, 63}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ShardList = %v, want %v", got, want)
	}
}

// event is a network-tier event-log span at virtual time at.
func event(at time.Duration, kind string, node int32, note string) Span {
	return Span{Kind: kind, Node: node, At: int64(at), Note: note}
}

// TestNilEventLogSafe: an untraced simulation keeps a nil recorder, so the
// event-log methods on it record nothing and render an empty log.
func TestNilEventLogSafe(t *testing.T) {
	var r *Recorder
	r.Eventf(0, 1, KindTx, "x") // must not panic
	var text, csv strings.Builder
	if err := r.WriteText(&text); err != nil || text.Len() != 0 {
		t.Fatalf("nil WriteText = %q, %v", text.String(), err)
	}
	if err := r.WriteCSV(&csv); err != nil || csv.String() != "at_ms,kind,node,detail\n" {
		t.Fatalf("nil WriteCSV = %q, %v", csv.String(), err)
	}
}

// TestEventLogBasics: Record derives AtMS from the nanosecond time, and an
// event renders as its log line, counts by kind and summarizes.
func TestEventLogBasics(t *testing.T) {
	r := New(TierNetwork, Unbounded)
	r.Record(event(1500*time.Millisecond, KindTx, 3, "result 20B"))
	r.Record(event(2*time.Second, KindSleep, 5, ""))
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].AtMS != 1500 || snap[0].Tier != TierNetwork {
		t.Fatalf("recorded %+v", snap)
	}
	if got, want := snap[0].String(), "        1.5s node=3   tx       result 20B"; got != want {
		t.Fatalf("event line = %q, want %q", got, want)
	}
	if counts := r.CountByKind(); counts[KindTx] != 1 || counts[KindSleep] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if got, want := r.Summary(), "2 events sleep=1 tx=1"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
	if js := Collect(r).JSON(); bytes.Contains(js, []byte(`"at"`)) || !bytes.Contains(js, []byte(`"node": 3`)) {
		t.Fatalf("export carries the nanosecond time or lacks the node:\n%s", js)
	}
}

// TestRecorderTail: Tail returns the newest n retained spans, all of them
// when n exceeds the ring, and the summary counts what the ring evicted.
func TestRecorderTail(t *testing.T) {
	r := New(TierNetwork, 3)
	for i := 0; i < 10; i++ {
		r.Record(event(time.Duration(i)*time.Second, KindTx, 1, fmt.Sprint(i)))
	}
	if _, dropped := r.Stats(); dropped != 7 || r.Snapshot()[0].Note != "7" {
		t.Fatalf("dropped = %d, oldest = %q", dropped, r.Snapshot()[0].Note)
	}
	if tail := r.Tail(2); len(tail) != 2 || tail[1].Note != "9" {
		t.Fatalf("tail = %v", tail)
	}
	if got := r.Tail(99); len(got) != 3 {
		t.Fatalf("oversized tail = %d", len(got))
	}
	if got, want := r.Summary(), "3 events (+7 dropped) tx=3"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

// TestRecorderRingOrdering: the ring keeps insertion order through many
// wrap-arounds, at every phase of its read position; Unbounded keeps all.
func TestRecorderRingOrdering(t *testing.T) {
	for _, total := range []int{3, 4, 5, 7, 12, 100, 101} {
		for _, capacity := range []int{4, Unbounded} {
			r := New(TierNetwork, capacity)
			for i := 0; i < total; i++ {
				r.Record(event(time.Duration(i), KindTx, 1, fmt.Sprint(i)))
			}
			first := 0
			if capacity > 0 && total > capacity {
				first = total - capacity
			}
			snap := r.Snapshot()
			if _, dropped := r.Stats(); dropped != uint64(first) || len(snap) != total-first {
				t.Fatalf("total=%d capacity=%d: %d retained, %d dropped", total, capacity, len(snap), dropped)
			}
			for j, s := range snap {
				if s.Note != fmt.Sprint(first+j) {
					t.Fatalf("total=%d capacity=%d: spans out of order: %v", total, capacity, snap)
				}
			}
		}
	}
}

// TestRecorderSnapshotIsCopy: a snapshot, wrapped or not, never aliases the
// ring.
func TestRecorderSnapshotIsCopy(t *testing.T) {
	for _, total := range []int{2, 5} {
		r := New(TierNetwork, 3)
		for i := 0; i < total; i++ {
			r.Record(event(time.Duration(i), KindTx, 1, fmt.Sprint(i)))
		}
		snap := r.Snapshot()
		want := snap[0].Note
		snap[0].Note = "clobbered"
		if r.Snapshot()[0].Note != want {
			t.Fatalf("total=%d: Snapshot exposed the ring", total)
		}
	}
}

// TestLifecyclesSnapshotIsCopy: neither the snapshot an admission is paired
// from nor the paired lifecycles alias the recorded admit span.
func TestLifecyclesSnapshotIsCopy(t *testing.T) {
	r := New(TierNetwork, 0)
	r.Record(Span{Trace: 7, Kind: KindAdmit, At: int64(time.Second), Seq: 1})
	snap := r.Snapshot()
	snap[0].Seq = 99
	lives := Lifecycles(r.Snapshot())
	lives[0].Injected = 99
	if got := Lifecycles(r.Snapshot())[0].Injected; got != 1 {
		t.Fatalf("lifecycle aliases the recorded admit: injected = %d", got)
	}
}

// TestRecorderSnapshotConcurrent pins the cross-goroutine contract: the
// /tracez and /metrics readers snapshot while the engine goroutine records.
// Under -race this fails if the recorder's locking regresses.
func TestRecorderSnapshotConcurrent(t *testing.T) {
	r := New(TierNetwork, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			r.Record(event(time.Duration(i), KindTx, 1, "msg"))
		}
	}()
	for i := 0; i < 200; i++ {
		snap := r.Snapshot()
		for j := 1; j < len(snap); j++ {
			if snap[j].At < snap[j-1].At {
				t.Fatalf("snapshot out of order at %d", j)
			}
		}
		Lifecycles(snap)
		r.Stats()
	}
	<-done
	if rec, dropped := r.Stats(); rec != 2000 || dropped != 2000-64 {
		t.Fatalf("stats = (%d, %d)", rec, dropped)
	}
}

// TestLifecyclesConcurrent: the gateway pairs lifecycles from a snapshot
// while the simulation records admit and first-result spans. Under -race
// this fails if the recorder's locking regresses.
func TestLifecyclesConcurrent(t *testing.T) {
	r := New(TierNetwork, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.Record(Span{Trace: uint64(i), Kind: KindAdmit, At: int64(i), Seq: 1})
			r.Record(Span{Trace: uint64(i), Kind: KindFirstResult, At: int64(i + 1)})
		}
	}()
	for i := 0; i < 200; i++ {
		Lifecycles(r.Snapshot())
		r.Stats()
	}
	<-done
	lives := Lifecycles(r.Snapshot())
	if len(lives) != 500 {
		t.Fatalf("paired %d lifecycles, want 500", len(lives))
	}
	for _, l := range lives {
		if !l.HasResult || l.Injected != 1 {
			t.Fatalf("lifecycle %+v lost its result or injected count", l)
		}
	}
}

// TestWriteTextAndCSV: the text log is one event line per span; the CSV has
// its header, millisecond times and doubled quotes.
func TestWriteTextAndCSV(t *testing.T) {
	r := New(TierNetwork, Unbounded)
	r.Record(event(1500*time.Millisecond, KindFlush, 0, `q1 "quoted"`))
	var text, csv strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got, want := text.String(), "        1.5s node=0   flush    q1 \"quoted\"\n"; got != want {
		t.Fatalf("text = %q, want %q", got, want)
	}
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got, want := csv.String(), "at_ms,kind,node,detail\n1500,flush,0,\"q1 \"\"quoted\"\"\"\n"; got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

// TestLifecycles: admit, first-result and cancel spans pair per query in
// admission order; later results never move the first-result mark.
func TestLifecycles(t *testing.T) {
	r := New(TierNetwork, 0)
	sec := int64(time.Second)
	r.Record(Span{Trace: 1, Kind: KindAdmit, At: 10 * sec, Seq: 2})
	r.Record(Span{Trace: 2, Kind: KindAdmit, At: 15 * sec})
	r.Record(Span{Trace: 1, Kind: KindFirstResult, At: 40 * sec})
	r.Record(Span{Trace: 1, Kind: KindFirstResult, At: 70 * sec})
	r.Record(Span{Trace: 2, Kind: KindCancel, At: 20 * sec})
	lives := Lifecycles(r.Snapshot())
	if len(lives) != 2 {
		t.Fatalf("got %d lifecycles, want 2", len(lives))
	}
	if l := lives[0]; l.Query != 1 || !l.HasResult || l.Injected != 2 {
		t.Fatalf("lifecycle 1 = %+v", l)
	}
	if ttfr, ok := lives[0].TTFR(); !ok || ttfr != 30*time.Second {
		t.Fatalf("TTFR = %v ok=%v, want 30s", ttfr, ok)
	}
	if l := lives[1]; l.Injected != 0 || l.HasResult || !l.Cancelled {
		t.Fatalf("lifecycle 2 = %+v", l)
	}
	if _, ok := lives[1].TTFR(); ok {
		t.Fatal("lifecycle 2 has no result but TTFR ok")
	}
}

// TestLifecyclesBounded: across a serving-length stream the ring stays at
// its depth, counts its evictions, and pairs exactly the most recent window
// in admission order; a result for an evicted admission adds nothing.
func TestLifecyclesBounded(t *testing.T) {
	const depth, n = 128, 100_000
	r := New(TierNetwork, depth)
	for i := 1; i <= n; i++ {
		r.Record(Span{Trace: uint64(i), Kind: KindAdmit, At: int64(i)})
		r.Record(Span{Trace: uint64(i), Kind: KindFirstResult, At: int64(i + 1)})
	}
	if rec, dropped := r.Stats(); rec != 2*n || dropped != 2*n-depth {
		t.Fatalf("stats = (%d, %d)", rec, dropped)
	}
	r.Record(Span{Trace: 1, Kind: KindFirstResult, At: n})
	lives := Lifecycles(r.Snapshot())
	if len(lives) != depth/2-1 {
		t.Fatalf("%d lifecycles in a %d-span ring", len(lives), depth)
	}
	for i, l := range lives {
		if want := uint64(n - depth/2 + 2 + i); l.Query != want || !l.HasResult {
			t.Fatalf("lifecycles[%d] = %+v, want query %d with its result", i, l, want)
		}
	}
}

// TestSpanSize pins the span's footprint: every simulation keeps 8 192 of
// them for its query lifecycles, so a field that widens it costs every
// shard of a serving stack.
func TestSpanSize(t *testing.T) {
	if size := unsafe.Sizeof(Span{}); size > 136 {
		t.Fatalf("Span is %d bytes, want at most 136", size)
	}
}

func TestSummarizeSpans(t *testing.T) {
	if got := SummarizeSpans(nil); got != nil {
		t.Fatalf("SummarizeSpans(nil) = %+v, want nil", got)
	}
	sec := int64(time.Second)
	spans := []Span{
		{Trace: 1, Kind: KindAdmit, At: 0, Seq: 2},
		{Trace: 2, Kind: KindAdmit, At: 10 * sec},
		{Trace: 3, Kind: KindAdmit, At: 15 * sec},
		{Trace: 2, Kind: KindFirstResult, At: 20 * sec},
		{Trace: 3, Kind: KindCancel, At: 25 * sec},
		{Trace: 1, Kind: KindFirstResult, At: 30 * sec},
		{Trace: 2, Kind: KindFirstResult, At: 40 * sec}, // later results never move the mark
		{Trace: 9, Kind: KindFirstResult, At: 40 * sec}, // its admit was evicted
	}
	sm := SummarizeSpans(spans)
	if sm.Queries != 3 || sm.Flooded != 1 || sm.FirstResults != 2 || sm.Cancelled != 1 || sm.Injected != 2 {
		t.Fatalf("summary counts = %+v", sm)
	}
	// TTFRs are 30s and 10s → mean 20s, max 30s.
	if sm.TTFRMeanMS != 20000 || sm.TTFRMaxMS != 30000 {
		t.Fatalf("TTFR mean/max = %v/%v, want 20000/30000", sm.TTFRMeanMS, sm.TTFRMaxMS)
	}
	if sm.TTFRP50MS <= 0 || sm.TTFRP95MS < sm.TTFRP50MS {
		t.Fatalf("TTFR quantiles = p50 %v p95 %v", sm.TTFRP50MS, sm.TTFRP95MS)
	}
}
