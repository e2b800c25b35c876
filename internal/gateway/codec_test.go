package gateway

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/tier"
	"repro/internal/tracing"
)

// encodeFrame is the test-side convenience wrapper around the two-step
// begin/seal contract the hot path uses with pooled buffers.
func encodeFrame(t *testing.T, enc func([]byte) ([]byte, error)) []byte {
	t.Helper()
	b, err := enc(nil)
	if err != nil {
		t.Fatal(err)
	}
	return sealFrame(b)
}

// stripFrame peels the magic byte and length prefix, returning the payload.
func stripFrame(t *testing.T, frame []byte) []byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	magic, err := br.ReadByte()
	if err != nil || magic != FrameMagic {
		t.Fatalf("frame magic = %#x, %v", magic, err)
	}
	p, err := readBinaryFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpHello, Client: "alice", Tag: "h", Wire: "binary"},
		{Op: OpHello, Client: "phoenix", Token: "tok-123"},
		{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms", Tag: "s1"},
		{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms", Tag: "d1", DeadlineMS: 1500},
		{Op: OpUnsubscribe, Sub: 7},
		{Op: OpStats, Tag: "st"},
		{Op: OpPing, Tag: "hb"},
		{Op: OpResume, Sub: 3, After: 42},
	}
	for _, want := range cases {
		frame := encodeFrame(t, func(b []byte) ([]byte, error) {
			return appendRequestFrame(b, &want)
		})
		got, err := decodeRequestPayload(stripFrame(t, frame))
		if err != nil {
			t.Fatalf("%s: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Type: TypeHello, Tag: "h", Session: "alice", Token: "tok"},
		{Type: TypeHello, Session: "phoenix", Token: "tok", Subs: []WireResumeInfo{
			{Sub: 2, QueryID: 9, Canonical: "SELECT light EPOCH DURATION 2048ms", LastSeq: 17},
		}},
		{Type: TypeSubscribed, Tag: "s1", Sub: 2, QueryID: 9, Shared: true, Canonical: "SELECT light"},
		{Type: TypeSubscribed, Sub: 2, QueryID: 9, Resumed: true},
		{Type: TypeRows, Sub: 2, Seq: 5, AtMS: 4096, Rows: []WireRow{
			{Node: 3, Values: map[string]float64{"light": 512.25, "temp": 20.5}},
			{Node: 11, Values: map[string]float64{"nodeid": 11}},
		}},
		{Type: TypeAgg, Sub: 4, Seq: 8, AtMS: 8192, Aggs: []WireAgg{
			{Agg: "MAX(light)", Group: 2, Value: 733.5},
			{Agg: "AVG(temp)", Empty: true},
		}},
		{Type: TypeRows, Sub: 6, Seq: 2, AtMS: 2048, Degraded: true, Coverage: 0.5, Rows: []WireRow{
			{Node: 1, Values: map[string]float64{"light": 100}},
		}},
		{Type: TypeAgg, Sub: 6, Seq: 3, AtMS: 4096, Degraded: true, Coverage: 0.75, Aggs: []WireAgg{
			{Agg: "MAX(light)", Value: 12.5},
		}},
		{Type: TypeClosed, Sub: 2, Reason: "unsubscribed"},
		{Type: TypeStats, Tag: "st", AtMS: 12288, Stats: &tier.GatewayMetrics{Counters: Stats{Admitted: 3, ActiveSessions: 1}}},
		{Type: TypePong, Tag: "hb"},
		{Type: TypeError, Tag: "bad", Error: "no such subscription"},
		{Type: TypeError, Tag: "sh", Error: "gateway overloaded", Code: CodeOverloaded, RetryAfterMS: 25},
	}
	for _, want := range cases {
		frame := encodeFrame(t, func(b []byte) ([]byte, error) {
			return appendResponseFrame(b, &want)
		})
		got, err := decodeResponsePayload(stripFrame(t, frame))
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	cases := []walRecord{
		{Op: walOpRegister, At: 1024, Sess: "alice", Token: "tok-1"},
		{Op: walOpSubscribe, At: 2048, Sess: "alice", Sub: 3, Query: "SELECT light EPOCH DURATION 2048ms"},
		{Op: walOpUnsubscribe, At: 4096, Sess: "alice", Sub: 3},
		{Op: walOpClose, At: 6144, Sess: "alice"},
		{Op: walOpAdvance, At: 8192},
	}
	for _, want := range cases {
		frame := encodeFrame(t, func(b []byte) ([]byte, error) {
			return appendWALFrame(b, &want)
		})
		got, err := decodeWALPayload(stripFrame(t, frame))
		if err != nil {
			t.Fatalf("%s: %v", want.Op, err)
		}
		if got != want {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

// TestUpdateFrameMatchesGenericEncoder pins the hot path to the generic
// encoder: appendUpdateFrame must produce byte-identical frames to
// appendResponseFrame(wireUpdate(u)) for both rows and aggregate updates.
func TestUpdateFrameMatchesGenericEncoder(t *testing.T) {
	updates := []Update{
		{Sub: 7, QueryID: 3, Seq: 42, At: 6144 * time.Millisecond, Rows: []query.Row{
			{Node: 5, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 512.25, field.AttrTemp: 20.5})},
			{Node: 9, Values: field.ValuesOf(map[field.Attr]float64{
				field.AttrNodeID: 9, field.AttrLight: 1.5, field.AttrTemp: 2.5,
				field.AttrHumidity: 3.5, field.AttrVoltage: 4.5,
			})},
			{Node: 2, Values: field.ValuesOf(map[field.Attr]float64{})},
		}},
		{Sub: 8, QueryID: 4, Seq: 1, At: 2048 * time.Millisecond, Aggs: []query.AggResult{
			{Agg: query.Agg{Op: query.Max, Attr: field.AttrLight}, Group: 2, Value: 733.5},
			{Agg: query.Agg{Op: query.Avg, Attr: field.AttrTemp}, Empty: true},
		}},
		// Traced deliveries carry the provenance trailer on both paths.
		{Sub: 9, QueryID: 5, Seq: 3, At: 4096 * time.Millisecond,
			Trace: 0xDEADBEEF,
			Prov:  tracing.Prov{Shards: 0b101, Frags: 3, Reused: 2, CacheHit: true, Rung: 1},
			Rows: []query.Row{
				{Node: 5, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 512.25})},
			}},
		{Sub: 10, QueryID: 6, Seq: 4, At: 6144 * time.Millisecond,
			Trace: 7,
			Aggs: []query.AggResult{
				{Agg: query.Agg{Op: query.Max, Attr: field.AttrLight}, Value: 12.5},
			}},
	}
	for _, u := range updates {
		fast := sealFrame(appendUpdateFrame(nil, &u))
		resp := wireUpdate(u)
		generic := encodeFrame(t, func(b []byte) ([]byte, error) {
			return appendResponseFrame(b, &resp)
		})
		if !bytes.Equal(fast, generic) {
			t.Errorf("update seq %d: fast path and generic encoder disagree:\nfast    %x\ngeneric %x",
				u.Seq, fast, generic)
		}
	}
}

// TestAppendUpdateFrameZeroAlloc is the tentpole's core claim: encoding a
// fanned-out update into a pre-grown buffer allocates nothing.
func TestAppendUpdateFrameZeroAlloc(t *testing.T) {
	u := Update{Sub: 7, Seq: 42, At: 6144 * time.Millisecond, Rows: []query.Row{
		{Node: 5, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 512.25, field.AttrTemp: 20.5})},
		{Node: 9, Values: field.ValuesOf(map[field.Attr]float64{field.AttrLight: 1.5, field.AttrVoltage: 4.5})},
	}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		frame := sealFrame(appendUpdateFrame(buf[:0], &u))
		if len(frame) == 0 {
			t.Fatal("empty frame")
		}
	})
	if allocs != 0 {
		t.Errorf("appendUpdateFrame allocates %.1f objects per frame, want 0", allocs)
	}

	// Tracing must not reintroduce allocations: a traced update's
	// provenance trailer rides the same pre-grown buffer.
	u.Trace = 0xDEADBEEF
	u.Prov = tracing.Prov{Shards: 0b11, Frags: 2, Reused: 1, CacheHit: true, Rung: 1}
	allocs = testing.AllocsPerRun(100, func() {
		frame := sealFrame(appendUpdateFrame(buf[:0], &u))
		if len(frame) == 0 {
			t.Fatal("empty frame")
		}
	})
	if allocs != 0 {
		t.Errorf("traced appendUpdateFrame allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestMalformedFramesRejected: corrupt frames must produce errors, never
// panics, and truncating a valid frame at any byte must fail cleanly.
func TestMalformedFramesRejected(t *testing.T) {
	req := Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms", Tag: "s"}
	valid := encodeFrame(t, func(b []byte) ([]byte, error) {
		return appendRequestFrame(b, &req)
	})
	if err := decodeFrame(valid); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if err := decodeFrame(valid[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}

	payload := stripFrame(t, valid)
	corrupt := map[string][]byte{
		"empty payload":     {},
		"bad version":       append([]byte{99}, payload[1:]...),
		"unknown op":        {WireVersion, 0xEE},
		"trailing bytes":    append(append([]byte{}, payload...), 0xFF),
		"string past end":   {WireVersion, frameReqHello, 0xFF, 0xFF, 0x01},
		"giant list count":  {WireVersion, frameRespHello, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated varint":  {WireVersion, frameReqPing, 0, 0, 0, 0x80},
		"truncated float64": {WireVersion, frameRespAgg, 2, 1, 0, 1, 1, 1, 0, 1, 2, 3},
	}
	for name, p := range corrupt {
		if _, err := decodeRequestPayload(p); err == nil {
			if _, err := decodeResponsePayload(p); err == nil {
				t.Errorf("%s: accepted by both request and response decoders", name)
			}
		}
	}

	// Oversized length prefix is refused before any read.
	br := bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}))
	if _, err := readBinaryFrame(br, nil); err == nil {
		t.Error("oversized frame length accepted")
	}
}

// FuzzDecodeFrame feeds arbitrary bytes through every decoder: the codec
// must reject garbage with an error, never a panic, and any payload that
// does decode as a request must survive an encode→decode round trip.
func FuzzDecodeFrame(f *testing.F) {
	seedReq := Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms", Tag: "s"}
	b, _ := appendRequestFrame(nil, &seedReq)
	f.Add(append([]byte{}, sealFrame(b)...))
	seedResp := Response{Type: TypeRows, Sub: 2, Seq: 5, AtMS: 4096, Rows: []WireRow{
		{Node: 3, Values: map[string]float64{"light": 512.25}},
	}}
	b2, _ := appendResponseFrame(nil, &seedResp)
	f.Add(append([]byte{}, sealFrame(b2)...))
	seedWAL := walRecord{Op: walOpSubscribe, At: 2048, Sess: "a", Sub: 1, Query: "q"}
	b3, _ := appendWALFrame(nil, &seedWAL)
	f.Add(append([]byte{}, sealFrame(b3)...))
	f.Add([]byte{FrameMagic, 0x03, WireVersion, frameReqPing, 0x00})
	f.Add([]byte{})
	// Frames with trace/provenance trailers seed the optional-suffix paths.
	tracedReq := Request{Op: OpSubscribe, Query: "SELECT light", Tag: "t", TraceID: 0xDEADBEEF}
	b4, _ := appendRequestFrame(nil, &tracedReq)
	f.Add(append([]byte{}, sealFrame(b4)...))
	tracedResp := Response{Type: TypeRows, Sub: 2, Seq: 5, AtMS: 4096, TraceID: 7,
		Prov: &WireProv{ShardMask: 0b11, Frags: 2, Reused: 1, CacheHit: true, Rung: 1},
		Rows: []WireRow{{Node: 3, Values: map[string]float64{"light": 512.25}}}}
	b5, _ := appendResponseFrame(nil, &tracedResp)
	f.Add(append([]byte{}, sealFrame(b5)...))
	tracedWAL := walRecord{Op: walOpSubscribe, At: 2048, Sess: "a", Sub: 1, Query: "q", Trace: 9}
	b6, _ := appendWALFrame(nil, &tracedWAL)
	f.Add(append([]byte{}, sealFrame(b6)...))
	// Keep and ref frames, rows and aggregates, the ref traced: without a
	// connection's slot table every one of them is an error.
	for _, u := range keptSeedUpdates() {
		f.Add(append([]byte{}, sealFrame(appendUpdateBody(appendUpdateHead(nil, &u, shareKeep, 1), &u))...))
		if u.Trace != 0 {
			f.Add(append([]byte{}, sealFrame(appendProvTrailer(appendUpdateHead(nil, &u, shareRef, 1), u.Trace, u.Prov))...))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = decodeFrame(data) // must not panic
		if req, err := decodeRequestPayload(data); err == nil {
			reb, err := appendRequestFrame(nil, &req)
			if err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
			again, err := decodeRequestPayload(stripFrame(t, sealFrame(reb)))
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request not stable across re-encode: %+v vs %+v (%v)", again, req, err)
			}
		}
		if rec, err := decodeWALPayload(data); err == nil {
			reb, err := appendWALFrame(nil, &rec)
			if err != nil {
				t.Fatalf("re-encode of decoded wal record failed: %v", err)
			}
			again, err := decodeWALPayload(stripFrame(t, sealFrame(reb)))
			if err != nil || again != rec {
				t.Fatalf("wal record not stable across re-encode: %+v vs %+v (%v)", again, rec, err)
			}
		}
		// Responses may decode with out-of-range attr/agg codes that have no
		// lossless re-encoding; only the no-panic guarantee applies.
		_, _ = decodeResponsePayload(data)
	})
}

// FuzzRequestRoundTrip fuzzes the structured side: every field combination
// of a request must survive encode→frame→decode bit-exact.
func FuzzRequestRoundTrip(f *testing.F) {
	f.Add(uint8(1), "alice", "tok", "SELECT light", int64(7), uint64(42), "tag", "binary", uint64(0))
	f.Add(uint8(6), "", "", "", int64(-1), uint64(0), "", "", uint64(0))
	f.Add(uint8(1), "alice", "", "SELECT light", int64(0), uint64(0), "t", "", uint64(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, opCode uint8, client, token, qtext string, sub int64, after uint64, tag, wire string, trace uint64) {
		op, ok := codeToOp[opCode%7]
		if !ok {
			t.Skip()
		}
		want := Request{Op: op, Client: client, Token: token, Query: qtext,
			Sub: SubID(sub), After: after, Tag: tag, Wire: wire, TraceID: trace}
		b, err := appendRequestFrame(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequestPayload(stripFrame(t, sealFrame(b)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}
