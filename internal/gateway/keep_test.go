package gateway

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/tracing"
)

// pumpRig is one binary connection writer over a buffer, its streams fed
// by the test, and one Client reading the buffer back.
type pumpRig struct {
	out  bytes.Buffer
	w    *connWriter
	subs []*Subscription
	c    *Client
}

func newPumpRig(streams int) *pumpRig {
	r := &pumpRig{}
	r.w = newConnWriter(&r.out)
	r.w.binary = true
	for i := 0; i < streams; i++ {
		r.subs = append(r.subs, stubSub(SubID(i+1)))
		r.w.streams = append(r.w.streams, stream{sub: r.subs[i]})
	}
	r.c = &Client{br: bufio.NewReader(&r.out)}
	return r
}

// pump hands each stream its updates as its take would (and closes the
// streams in closing), sends them and returns the bytes the writer wrote.
func (r *pumpRig) pump(t testing.TB, updates [][]Update, closing map[int]bool) []byte {
	t.Helper()
	for i := range r.w.streams {
		st := &r.w.streams[i]
		j := slices.Index(r.subs, st.sub)
		st.batch = append(st.batch[:0], updates[j]...)
		st.live = !closing[j]
	}
	if err := r.w.send(); err != nil {
		t.Fatal(err)
	}
	return r.out.Bytes()
}

// wholeResponse is the decode of u's whole frame.
func wholeResponse(t *testing.T, u *Update) Response {
	t.Helper()
	resp, err := decodeResponsePayload(stripFrame(t, sealFrame(appendUpdateFrame(nil, u))))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// frameKinds lists the kind byte of every frame in b.
func frameKinds(t *testing.T, b []byte) []byte {
	t.Helper()
	var kinds []byte
	for len(b) > 0 {
		n, sz := binary.Uvarint(b[1:])
		if b[0] != FrameMagic || sz <= 0 {
			t.Fatalf("not a frame at %x", b)
		}
		p := b[1+sz : 1+sz+int(n)]
		kinds = append(kinds, p[1])
		b = b[1+sz+int(n):]
	}
	return kinds
}

// ulpTwin is u with the same query id and instant but another backing array
// whose values differ in the last ulp — a cache replay beside the live
// epoch.
func ulpTwin(u Update) Update {
	if aggUpdate(&u) {
		u.Aggs = append([]query.AggResult(nil), u.Aggs...)
		for i := range u.Aggs {
			u.Aggs[i].Value = math.Nextafter(u.Aggs[i].Value, math.Inf(1))
		}
		return u
	}
	rows := make([]query.Row, len(u.Rows))
	for i, row := range u.Rows {
		rows[i].Node = row.Node
		row.Values.Each(func(a field.Attr, v float64) { rows[i].Values.Set(a, math.Nextafter(v, math.Inf(1))) })
	}
	u.Rows = rows
	return u
}

// TestKeptBodiesMatchWholeFrames is the oracle: whatever a pump sends — whole,
// keep and ref frames for rows and aggregates, degraded or not, traced or not,
// with ulp twins and closed streams among them — one Client reads back, frame
// by frame, exactly the decode of each update's whole frame, and a closed
// notice after its stream's last frame.
func TestKeptBodiesMatchWholeFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	seen := map[byte]int{}
	for round := 0; round < 100; round++ {
		streams := 1 + rng.Intn(24)
		r := newPumpRig(streams)
		seq := make([]uint64, streams)
		for pump := 0; pump < 4 && len(r.w.streams) > 0; pump++ {
			var epochs []Update
			for i := 0; i < 1+rng.Intn(5); i++ {
				u := randomUpdate(rng)
				epochs = append(epochs, u)
				if rng.Intn(3) == 0 {
					epochs = append(epochs, ulpTwin(u))
				}
			}
			updates := make([][]Update, streams)
			closing := map[int]bool{}
			type want struct {
				resp   Response
				closed SubID
			}
			var wants []want
			for _, st := range r.w.streams {
				i := int(st.sub.ID()) - 1
				for n := rng.Intn(3); n > 0; n-- {
					u := epochs[rng.Intn(len(epochs))]
					seq[i]++
					u.Sub, u.Seq = SubID(i+1), seq[i]
					u.Trace = 0
					if rng.Intn(3) == 0 {
						u.Trace = 1 + rng.Uint64()
						u.Prov = tracing.Prov{Shards: rng.Uint64() & 0xF, Frags: uint16(rng.Intn(9)), CacheHit: rng.Intn(2) == 0}
					}
					updates[i] = append(updates[i], u)
					wants = append(wants, want{resp: wholeResponse(t, &u)})
				}
				if rng.Intn(8) == 0 {
					closing[i] = true
					wants = append(wants, want{closed: SubID(i + 1)})
				}
			}
			for _, k := range frameKinds(t, r.pump(t, updates, closing)) {
				seen[k]++
			}
			for k, w := range wants {
				got, err := r.c.Recv()
				if err != nil {
					t.Fatalf("round %d pump %d frame %d: %v", round, pump, k, err)
				}
				if w.closed != 0 {
					if got.Type != TypeClosed || got.Sub != w.closed {
						t.Fatalf("round %d pump %d frame %d: got %+v, want sub %d's closed notice", round, pump, k, got, w.closed)
					}
					continue
				}
				if !reflect.DeepEqual(got, w.resp) {
					t.Fatalf("round %d pump %d frame %d:\n got %+v\nwant %+v", round, pump, k, got, w.resp)
				}
			}
			if r.out.Len() != 0 {
				t.Fatalf("round %d pump %d: %d bytes left unread", round, pump, r.out.Len())
			}
		}
	}
	for _, k := range []byte{frameRespRows, frameRespAgg, frameRespRowsKeep, frameRespAggKeep, frameRespRowsRef, frameRespAggRef, frameRespClosed} {
		if seen[k] == 0 {
			t.Errorf("no frame of kind %d in any pump", k)
		}
	}
	t.Logf("frames by kind: %v", seen)
}

// TestKeptBodyShape pins what a pump puts on the wire: a body that n frames
// carry goes out as one keep frame and n-1 ref frames; a pump with no
// repeated body writes exactly the whole frames; past the slot table's end
// repeated bodies go whole; an ulp twin carried once goes whole; and a
// stream's closed notice follows its last frame.
func TestKeptBodyShape(t *testing.T) {
	u := benchUpdate()
	at := func(u Update, sub int) Update { u.Sub, u.Seq = SubID(sub), 1; return u }
	kinds := func(t *testing.T, b []byte) string {
		names := map[byte]string{frameRespRows: "W", frameRespRowsKeep: "K", frameRespRowsRef: "R", frameRespClosed: "C"}
		var s []byte
		for _, k := range frameKinds(t, b) {
			s = append(s, names[k]...)
		}
		return string(s)
	}

	t.Run("one query, n subscriptions", func(t *testing.T) {
		const n = 16
		r := newPumpRig(n)
		updates := make([][]Update, n)
		for i := range updates {
			updates[i] = []Update{at(u, i+1)}
		}
		if got, want := kinds(t, r.pump(t, updates, nil)), "K"+string(bytes.Repeat([]byte("R"), n-1)); got != want {
			t.Fatalf("frames %s, want %s", got, want)
		}
	})

	t.Run("no repeated body", func(t *testing.T) {
		r := newPumpRig(3)
		twin := ulpTwin(u)
		other := u
		other.QueryID++
		updates := [][]Update{{at(u, 1)}, {at(twin, 2)}, {at(other, 3)}}
		var want []byte
		for _, us := range updates {
			want = append(want, sealFrame(appendUpdateFrame(nil, &us[0]))...)
		}
		if got := r.pump(t, updates, nil); !bytes.Equal(got, want) {
			t.Fatalf("a pump without repeats wrote\n%x\nwant the whole frames\n%x", got, want)
		}
	})

	t.Run("more repeated bodies than slots", func(t *testing.T) {
		const queries = keptSlots + 6
		r := newPumpRig(2 * queries)
		updates := make([][]Update, 2*queries)
		var want []byte
		for q := 0; q < queries; q++ {
			v := u
			v.QueryID = query.ID(q + 1)
			updates[2*q] = []Update{at(v, 2*q+1)}
			updates[2*q+1] = []Update{at(v, 2*q+2)}
			if q < keptSlots {
				want = append(want, "KR"...)
			} else {
				want = append(want, "WW"...)
			}
		}
		if got := kinds(t, r.pump(t, updates, nil)); got != string(want) {
			t.Fatalf("frames %s, want %s", got, want)
		}
		for i := 0; i < 2*queries; i++ {
			got, err := r.c.Recv()
			if err != nil || got.Sub != SubID(i+1) || len(got.Rows) != len(u.Rows) {
				t.Fatalf("frame %d: %+v, %v", i, got, err)
			}
		}
	})

	t.Run("closed notice follows the last frame", func(t *testing.T) {
		r := newPumpRig(2)
		second := u
		second.At += 2048 * time.Millisecond
		updates := [][]Update{{at(u, 1)}, {at(u, 2), at(second, 2)}}
		if got := kinds(t, r.pump(t, updates, map[int]bool{1: true})); got != "KRWC" {
			t.Fatalf("frames %s, want KRWC", got)
		}
		if len(r.w.streams) != 1 {
			t.Fatalf("%d streams registered after one closed, want 1", len(r.w.streams))
		}
	})
}

// TestKeptBodyFramesRejected: a keep or ref frame decoded without a slot
// table, a ref to an empty, other-kind or out-of-range slot, and every
// truncation of a keep or ref frame return an error and never panic.
func TestKeptBodyFramesRejected(t *testing.T) {
	u := benchUpdate()
	keep := stripFrame(t, sealFrame(appendUpdateBody(appendUpdateHead(nil, &u, shareKeep, 3), &u)))
	ref := stripFrame(t, sealFrame(appendUpdateHead(nil, &u, shareRef, 3)))
	refOut := stripFrame(t, sealFrame(appendUpdateHead(nil, &u, shareRef, keptSlots)))
	keepOut := stripFrame(t, sealFrame(appendUpdateBody(appendUpdateHead(nil, &u, shareKeep, keptSlots), &u)))
	a := Update{Sub: 1, Seq: 1, Aggs: []query.AggResult{{Agg: query.Agg{Op: query.Max, Attr: field.AttrLight}, Value: 1}}}
	aggRef := stripFrame(t, sealFrame(appendUpdateHead(nil, &a, shareRef, 3)))

	for name, p := range map[string][]byte{"keep": keep, "ref": ref} {
		if _, err := decodeResponsePayload(p); err == nil {
			t.Errorf("%s frame decoded without a slot table", name)
		}
	}
	var table keptTable
	for name, p := range map[string][]byte{"ref to an empty slot": ref, "ref past the table": refOut, "keep past the table": keepOut} {
		if _, err := decodeResponse(p, &table); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := decodeResponse(keep, &table); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(aggRef, &table); err == nil {
		t.Error("agg ref to a rows slot accepted")
	}
	if got, err := decodeResponse(ref, &table); err != nil || len(got.Rows) != len(u.Rows) {
		t.Fatalf("ref to the kept slot: %+v, %v", got, err)
	}
	for name, p := range map[string][]byte{"keep": keep, "ref": ref} {
		for cut := 0; cut < len(p); cut++ {
			var fresh keptTable
			fresh[3] = table[3]
			if _, err := decodeResponse(p[:cut], &fresh); err == nil {
				t.Errorf("%s truncated at %d accepted", name, cut)
			}
		}
	}
}

// TestPumpAllocatesNothing: the steady-state pump — one query's body kept
// and referenced by 16 subscriptions, another sent whole, traced and
// untraced — performs no allocation, and neither does decoding an untraced
// ref frame.
func TestPumpAllocatesNothing(t *testing.T) {
	const subs = 17
	w := newConnWriter(&countingWriter{})
	w.binary = true
	sb := newStubStreams(subs, func(i int) uint64 { return uint64(i % 2) })
	for _, sub := range sb.subs {
		w.streams = append(w.streams, stream{sub: sub})
	}
	u, lone := benchUpdate(), benchUpdate()
	lone.QueryID++
	allocs := testing.AllocsPerRun(200, func() {
		sb.mu.Lock()
		for _, sub := range sb.subs[:subs-1] {
			v := u
			sub.Push(&v)
		}
		sb.subs[subs-1].Push(&lone)
		sb.mu.Unlock()
		_ = w.pump()
	})
	if allocs != 0 {
		t.Errorf("pump allocates %.1f objects per round, want 0", allocs)
	}

	var table keptTable
	if _, err := decodeResponse(stripFrame(t, sealFrame(appendUpdateBody(appendUpdateHead(nil, &u, shareKeep, 0), &u))), &table); err != nil {
		t.Fatal(err)
	}
	ref := stripFrame(t, sealFrame(appendUpdateHead(nil, &u, shareRef, 0)))
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := decodeResponse(ref, &table); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("an untraced ref decode allocates %.1f objects, want 0", allocs)
	}
}

// TestKeptBodiesAcrossResume: several subscriptions of one query on a binary
// connection, a gateway crash, a re-attach and a resume of every stream: each
// stream's seq stays contiguous across the crash, every subscriber reads the
// same values for each epoch, and the re-attached connection's subscribers
// share decoded bodies.
func TestKeptBodiesAcrossResume(t *testing.T) {
	const subs = 4
	const text = "SELECT light, temp EPOCH DURATION 2048ms"
	cfg := walConfig(t, filepath.Join(t.TempDir(), "gw.wal"))
	srvCfg := ServerConfig{Addr: "127.0.0.1:0", TickEvery: 5 * time.Millisecond, Quantum: 2048 * time.Millisecond}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(gw, srvCfg)
	if err != nil {
		_ = gw.Close()
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String(), ClientConfig{Binary: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hello, err := c.Hello("kept", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < subs; i++ {
		if err := c.Send(Request{Op: OpSubscribe, Query: text}); err != nil {
			t.Fatal(err)
		}
	}
	last := map[SubID]uint64{}
	byEpoch := map[int64][]WireRow{}
	shared := 0
	// read takes frames until every subscription has seq >= upto, checking
	// each one's contiguity and every epoch's values against the first copy.
	read := func(c *Client, upto uint64) {
		t.Helper()
		for {
			done := len(last) == subs
			for _, s := range last {
				done = done && s >= upto
			}
			if done {
				return
			}
			resp, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			switch resp.Type {
			case TypeSubscribed:
				if _, ok := last[resp.Sub]; !ok {
					last[resp.Sub] = 0
				}
				continue
			case TypeRows:
			default:
				t.Fatalf("unexpected %+v", resp)
			}
			if resp.Seq != last[resp.Sub]+1 {
				t.Fatalf("sub %d: seq %d after %d", resp.Sub, resp.Seq, last[resp.Sub])
			}
			last[resp.Sub] = resp.Seq
			first, ok := byEpoch[resp.AtMS]
			switch {
			case !ok:
				byEpoch[resp.AtMS] = resp.Rows
			case !reflect.DeepEqual(first, resp.Rows):
				t.Fatalf("epoch %d: sub %d read %v, another subscriber %v", resp.AtMS, resp.Sub, resp.Rows, first)
			case len(first) > 0 && &first[0] == &resp.Rows[0]:
				shared++
			}
		}
	}
	read(c, 2)
	shared = 0
	c.Close()
	_ = srv.Close()
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}

	g2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(g2, srvCfg)
	if err != nil {
		_ = g2.Close()
		t.Fatal(err)
	}
	defer func() {
		_ = g2.Close()
		_ = s2.Close()
	}()
	c2, err := Dial(s2.Addr().String(), ClientConfig{Binary: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h2, err := c2.Hello("kept", hello.Token)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.Subs) != subs {
		t.Fatalf("re-attach listed %d subscriptions, want %d", len(h2.Subs), subs)
	}
	for _, in := range h2.Subs {
		if err := c2.Send(Request{Op: OpResume, Sub: in.Sub, After: last[in.Sub]}); err != nil {
			t.Fatal(err)
		}
	}
	// Until the resumed connection's subscribers have shared a decoded body.
	for upto := uint64(6); shared == 0; upto += 4 {
		if upto > 200 {
			t.Fatal("no epoch reached two subscribers through one kept body")
		}
		read(c2, upto)
	}
}

// keptSeedUpdates are one rows and one traced aggregate update, the seeds of
// the keep and ref frames the fuzz targets start from.
func keptSeedUpdates() []Update {
	return []Update{benchUpdate(), {Sub: 2, Seq: 9, At: 4096 * time.Millisecond, Trace: 7,
		Prov: tracing.Prov{Shards: 0b11, Frags: 2},
		Aggs: []query.AggResult{{Agg: query.Agg{Op: query.Max, Attr: field.AttrLight}, Value: 12.5}}}}
}

// FuzzDecodeStream decodes an arbitrary byte stream frame by frame through
// one Client, so keep frames fill its slot table and ref frames read it: no
// stream may panic the client.
func FuzzDecodeStream(f *testing.F) {
	// A real pump: kept rows and aggregates with their refs, a whole frame,
	// a closed notice.
	r := newPumpRig(5)
	us := keptSeedUpdates()
	lone := us[0]
	lone.QueryID++
	updates := [][]Update{{us[0]}, {us[0], us[1]}, {us[1]}, {lone}, nil}
	for i := range updates {
		for j := range updates[i] {
			updates[i][j].Sub = SubID(i + 1)
		}
	}
	f.Add(append([]byte{}, r.pump(f, updates, map[int]bool{4: true})...))
	ref := sealFrame(appendUpdateHead(nil, &us[0], shareRef, 0))
	f.Add(append(append([]byte{}, ref...), ref...))
	f.Add([]byte(`{"type":"pong","tag":"hb"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Client{br: bufio.NewReader(bytes.NewReader(data))}
		for {
			if _, err := c.Recv(); errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
		}
	})
}
