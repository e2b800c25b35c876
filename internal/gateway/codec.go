package gateway

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/tier"
	"repro/internal/topology"
	"repro/internal/tracing"
)

// Binary wire codec for the serving hot path.
//
// Every frame is length-prefixed and self-describing:
//
//	[0]    FrameMagic (0xB7) — never a JSON line's first byte, so a reader
//	       peeking one byte can tell a binary frame from a legacy
//	       newline-delimited JSON line and the two framings interleave
//	       safely on one stream.
//	[1..]  uvarint payload length (bounded by maxFramePayload)
//	[...]  payload:
//	         [0] WireVersion
//	         [1] frame kind (request op, response type, or WAL op)
//	         ... kind-specific fields
//
// Field primitives: uvarint / zig-zag varint integers, uvarint
// length-prefixed strings, 8-byte little-endian IEEE-754 floats, one-byte
// bools, and one-byte attribute / aggregate-operator codes (field.Attr and
// query.AggOp are already small enums). Result rows ride as (attr, value)
// pairs straight from the simulation's typed form — the binary encoder
// never builds the string-keyed maps the JSON form needs, which is where
// most of the old hot-path garbage came from.
//
// A result frame is a per-subscriber head (kind, sub, seq), a body every
// subscriber of the query shares (timestamp, degraded/coverage, rows or
// aggregates) and an optional trace trailer. Besides the whole rows and agg
// frames there are two shared-body kinds of each: a keep frame is a whole
// frame whose head also names a connection slot, and the client keeps the
// decoded body there; a ref frame is the head, the slot and the trailer,
// and carries the kept body. The connection writer keeps a body only when a
// pump carries it more than once, and a ref names only a slot kept earlier
// in the same pump on the same connection, so a pump without repeats writes
// exactly the whole frames. The kinds are additive and WireVersion stays 1
// (the WAL shares it): a decoder that predates them rejects them by kind
// code, and one without a slot table (decodeResponsePayload) rejects them
// too.
//
// Encoding appends into caller-owned buffers (see frameBufPool) so the
// steady-state fan-out path allocates nothing. Decoding is bounds-checked
// with a sticky error and never panics on malformed input: list counts are
// validated against the remaining payload bytes before any allocation.
//
// The codec carries the serving protocol (Request/Response) and the WAL
// record format symmetrically; JSON remains first-class for the handshake
// and for clients that never ask for binary (the decoder on both ends
// auto-detects per frame).

// WireVersion is the binary frame format version; a frame with a different
// version byte is rejected, never misparsed.
const WireVersion = 1

// FrameMagic is the first byte of every binary frame. 0xB7 is not valid
// UTF-8-leading JSON ('{', whitespace, ...), so framing auto-detection is
// unambiguous.
const FrameMagic byte = 0xB7

// maxFramePayload bounds a frame's payload, mirroring the 1 MiB line cap
// the JSON scanner used. Oversized or negative lengths are malformed.
const maxFramePayload = 1 << 20

// Request op codes (binary spelling of the Op* strings).
const (
	frameReqHello byte = iota + 1
	frameReqSubscribe
	frameReqUnsubscribe
	frameReqStats
	frameReqPing
	frameReqResume
)

// Response type codes (binary spelling of the Type* strings).
const (
	frameRespHello byte = iota + 1
	frameRespSubscribed
	frameRespRows
	frameRespAgg
	frameRespClosed
	frameRespStats
	frameRespPong
	frameRespError
	// The keep and ref kinds of a result frame (see the header comment).
	frameRespRowsKeep
	frameRespAggKeep
	frameRespRowsRef
	frameRespAggRef
)

// frameShare is how an update frame carries its body.
type frameShare uint8

const (
	shareNone frameShare = iota // whole: head, body, trailer
	shareKeep                   // whole, and the client keeps the body in a slot
	shareRef                    // head, slot, trailer: the body is the slot's
)

// updateKinds[share][agg] is the kind of an update frame.
var updateKinds = [3][2]byte{
	shareNone: {frameRespRows, frameRespAgg},
	shareKeep: {frameRespRowsKeep, frameRespAggKeep},
	shareRef:  {frameRespRowsRef, frameRespAggRef},
}

// sharedKinds maps a keep or ref frame kind to its response type.
var sharedKinds = map[byte]struct {
	typ   string
	share frameShare
}{
	frameRespRowsKeep: {TypeRows, shareKeep},
	frameRespAggKeep:  {TypeAgg, shareKeep},
	frameRespRowsRef:  {TypeRows, shareRef},
	frameRespAggRef:   {TypeAgg, shareRef},
}

// keptSlots bounds a connection's table of kept bodies: the connection
// writer assigns slots 0, 1, ... afresh in every pump and sends the bodies
// past the last slot whole.
const keptSlots = 64

// keptBody is one slot of a client's table: the shared part of the update
// frame last kept there, decoded once. An empty slot has no typ.
type keptBody struct {
	typ      string
	atMS     int64
	degraded bool
	coverage float64
	rows     []WireRow
	aggs     []WireAgg
}

// keptTable is a connection's table of kept bodies, one per slot.
type keptTable [keptSlots]keptBody

// Each wire code table is declared once, op or type to code; the decoder's
// code-to-name direction is derived from it.
var opToCode = map[string]byte{
	OpHello:       frameReqHello,
	OpSubscribe:   frameReqSubscribe,
	OpUnsubscribe: frameReqUnsubscribe,
	OpStats:       frameReqStats,
	OpPing:        frameReqPing,
	OpResume:      frameReqResume,
}

var codeToOp = inverse(opToCode)

var typeToCode = map[string]byte{
	TypeHello:      frameRespHello,
	TypeSubscribed: frameRespSubscribed,
	TypeRows:       frameRespRows,
	TypeAgg:        frameRespAgg,
	TypeClosed:     frameRespClosed,
	TypeStats:      frameRespStats,
	TypePong:       frameRespPong,
	TypeError:      frameRespError,
}

var codeToType = inverse(typeToCode)

// inverse maps each value of a one-to-one table back to its key.
func inverse[K, V comparable](m map[K]V) map[V]K {
	out := make(map[V]K, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// allAttrs is the fixed attribute order binary rows are emitted in, so the
// encoding of a row is deterministic regardless of map iteration order
// (the JSON encoder sorts map keys; this is the binary analogue).
var allAttrs = field.AllAttrs()

// frameBufPool recycles encode buffers across responses, WAL records and
// client requests. Buffers start at 1 KiB and grow to fit; oversized ones
// are still pooled (epoch fan-out frames are all roughly the same size, so
// the pool converges on the workload's natural frame size).
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

func getFrameBuf() *[]byte  { return frameBufPool.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { *b = (*b)[:0]; frameBufPool.Put(b) }

// --- append-style field primitives ---

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// frameReader decodes one payload with a sticky error; every accessor is
// bounds-checked so malformed frames fail cleanly instead of panicking.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("gateway: malformed frame: %s at offset %d", what, r.off)
	}
}

func (r *frameReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string length past end")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *frameReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("bytes length past end")
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

func (r *frameReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *frameReader) bool() bool { return r.byte() != 0 }

// slot reads a keep or ref frame's slot number and returns that slot of
// kept; nil, with the error set, when it is out of range.
func (r *frameReader) slot(kept *keptTable) *keptBody {
	n := r.uvarint()
	if r.err == nil && n >= keptSlots {
		r.fail("slot out of range")
	}
	if r.err != nil {
		return nil
	}
	return &kept[n]
}

// count validates a list length against the remaining payload before the
// caller allocates: every element needs at least min bytes, so a malicious
// length can never force a huge allocation from a tiny frame.
func (r *frameReader) count(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64((len(r.b)-r.off)/min)+1 {
		r.fail("list count past end")
		return 0
	}
	return int(n)
}

// more reports whether optional trailing fields remain. Frames from
// pre-tracing peers end exactly where the mandatory fields do and decode
// unchanged; encoders append the trace/provenance trailer only on traced
// traffic (trace id nonzero), so untraced frames stay byte-identical to the
// pre-tracing encoding.
func (r *frameReader) more() bool {
	return r.err == nil && r.off < len(r.b)
}

func (r *frameReader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("gateway: malformed frame: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// --- framing ---

// frameHeaderMax is the reserved prefix: magic byte + worst-case uvarint
// length. The actual header is right-aligned against the payload at seal
// time, so short frames simply start a byte or two into the buffer.
const frameHeaderMax = 1 + binary.MaxVarintLen32

// beginFrame reserves header space; payload fields append after it. The
// append*Frame encoders require buf to be empty (len 0) — one frame per
// buffer; sealFrame depends on the header sitting at offset 0.
func beginFrame(buf []byte) []byte {
	return append(buf, make([]byte, frameHeaderMax)...)
}

// sealFrame writes the magic byte and length prefix in front of the
// payload built after beginFrame and returns the finished frame — a
// sub-slice of buf, right-aligned so the frame is contiguous. Callers keep
// the full buf (not the returned view) for pooling, so grown capacity is
// retained.
func sealFrame(buf []byte) []byte { return sealFrameHead(buf, 0) }

// sealFrameHead seals a frame whose payload continues for rest more bytes
// after buf: the caller writes the returned head, then those bytes.
func sealFrameHead(buf []byte, rest int) []byte {
	payload := len(buf) - frameHeaderMax + rest
	var hdr [frameHeaderMax]byte
	hdr[0] = FrameMagic
	n := binary.PutUvarint(hdr[1:], uint64(payload))
	start := frameHeaderMax - 1 - n
	copy(buf[start:], hdr[:1+n])
	return buf[start:]
}

// readBinaryFrame reads one frame's payload after the magic byte has been
// consumed, appending into scratch (which is grown as needed and returned).
func readBinaryFrame(br *bufio.Reader, scratch []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return scratch, err
	}
	if n > maxFramePayload {
		return scratch, fmt.Errorf("gateway: frame payload %d exceeds %d", n, maxFramePayload)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(br, scratch); err != nil {
		return scratch, err
	}
	return scratch, nil
}

// appendProvTrailer encodes the optional trace/provenance trailer of a
// delivered-result frame: trace id, shard mask, fragment counts, then one
// flags byte packing the cache-hit bit (bit 0) under the brownout rung
// (bits 1..7). Appended only when trace is nonzero.
func appendProvTrailer(b []byte, trace uint64, p tracing.Prov) []byte {
	b = binary.AppendUvarint(b, trace)
	b = binary.AppendUvarint(b, p.Shards)
	b = binary.AppendUvarint(b, uint64(p.Frags))
	b = binary.AppendUvarint(b, uint64(p.Reused))
	flags := byte(p.Rung) << 1
	if p.CacheHit {
		flags |= 1
	}
	return append(b, flags)
}

// wireProvOf converts a response's JSON-form provenance back to the packed
// form the binary trailer encodes; nil means an all-zero record.
func wireProvOf(p *WireProv) tracing.Prov {
	if p == nil {
		return tracing.Prov{}
	}
	return tracing.Prov{
		Shards:   p.ShardMask,
		Frags:    uint16(p.Frags),
		Reused:   uint16(p.Reused),
		CacheHit: p.CacheHit,
		Rung:     uint8(p.Rung),
	}
}

// decodeProvTrailer parses the trailer appendProvTrailer wrote, populating
// the response's TraceID and (when non-empty) Prov.
func decodeProvTrailer(r *frameReader, resp *Response) {
	resp.TraceID = r.uvarint()
	var p WireProv
	p.ShardMask = r.uvarint()
	p.Frags = int(r.uvarint())
	p.Reused = int(r.uvarint())
	flags := r.byte()
	p.CacheHit = flags&1 != 0
	p.Rung = int(flags >> 1)
	if r.err == nil && p != (WireProv{}) {
		resp.Prov = &p
	}
}

// --- Request ---

// appendRequestFrame encodes one client request as a binary frame.
func appendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	code, ok := opToCode[req.Op]
	if !ok {
		return buf, fmt.Errorf("gateway: unknown op %q", req.Op)
	}
	b := beginFrame(buf)
	b = append(b, WireVersion, code)
	b = appendString(b, req.Client)
	b = appendString(b, req.Token)
	b = appendString(b, req.Query)
	b = binary.AppendVarint(b, int64(req.Sub))
	b = binary.AppendUvarint(b, req.After)
	b = appendString(b, req.Tag)
	b = appendString(b, req.Wire)
	b = binary.AppendVarint(b, req.DeadlineMS)
	if req.TraceID != 0 {
		b = binary.AppendUvarint(b, req.TraceID)
	}
	return b, nil
}

// decodeRequestPayload parses a binary request payload (after the magic and
// length prefix have been consumed).
func decodeRequestPayload(p []byte) (Request, error) {
	r := frameReader{b: p}
	if v := r.byte(); r.err == nil && v != WireVersion {
		return Request{}, fmt.Errorf("gateway: unsupported wire version %d", v)
	}
	code := r.byte()
	op, ok := codeToOp[code]
	if r.err == nil && !ok {
		return Request{}, fmt.Errorf("gateway: unknown request code %d", code)
	}
	req := Request{Op: op}
	req.Client = r.str()
	req.Token = r.str()
	req.Query = r.str()
	req.Sub = SubID(r.varint())
	req.After = r.uvarint()
	req.Tag = r.str()
	req.Wire = r.str()
	req.DeadlineMS = r.varint()
	if r.more() {
		req.TraceID = r.uvarint()
	}
	return req, r.finish()
}

// --- Response ---

// appendResponseFrame encodes one server response as a binary frame. The
// fan-out hot path uses appendUpdateFrame instead (same bytes, no
// intermediate Response); this generic form serves the control plane and
// round-trip tests.
func appendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	code, ok := typeToCode[resp.Type]
	if !ok {
		return buf, fmt.Errorf("gateway: unknown response type %q", resp.Type)
	}
	b := beginFrame(buf)
	b = append(b, WireVersion, code)
	switch resp.Type {
	case TypeHello:
		b = appendString(b, resp.Tag)
		b = appendString(b, resp.Session)
		b = appendString(b, resp.Token)
		b = binary.AppendUvarint(b, uint64(len(resp.Subs)))
		for _, in := range resp.Subs {
			b = binary.AppendVarint(b, int64(in.Sub))
			b = binary.AppendVarint(b, int64(in.QueryID))
			b = appendString(b, in.Canonical)
			b = binary.AppendUvarint(b, in.LastSeq)
		}
	case TypeSubscribed:
		b = appendString(b, resp.Tag)
		b = binary.AppendVarint(b, int64(resp.Sub))
		b = binary.AppendVarint(b, int64(resp.QueryID))
		b = appendBool(b, resp.Shared)
		b = appendBool(b, resp.Resumed)
		b = appendString(b, resp.Canonical)
		if resp.TraceID != 0 {
			b = binary.AppendUvarint(b, resp.TraceID)
		}
	case TypeRows:
		b = binary.AppendVarint(b, int64(resp.Sub))
		b = binary.AppendUvarint(b, resp.Seq)
		b = binary.AppendVarint(b, resp.AtMS)
		// Coverage rides only on degraded epochs, so the common fully-
		// covered frame costs one byte.
		b = appendBool(b, resp.Degraded)
		if resp.Degraded {
			b = appendFloat(b, resp.Coverage)
		}
		b = binary.AppendUvarint(b, uint64(len(resp.Rows)))
		for _, row := range resp.Rows {
			b = binary.AppendVarint(b, int64(row.Node))
			b = binary.AppendUvarint(b, uint64(len(row.Values)))
			// Fixed attribute order keeps the encoding deterministic.
			for _, a := range allAttrs {
				if v, ok := row.Values[a.String()]; ok {
					b = append(b, byte(a))
					b = appendFloat(b, v)
				}
			}
		}
		if resp.TraceID != 0 {
			b = appendProvTrailer(b, resp.TraceID, wireProvOf(resp.Prov))
		}
	case TypeAgg:
		b = binary.AppendVarint(b, int64(resp.Sub))
		b = binary.AppendUvarint(b, resp.Seq)
		b = binary.AppendVarint(b, resp.AtMS)
		b = appendBool(b, resp.Degraded)
		if resp.Degraded {
			b = appendFloat(b, resp.Coverage)
		}
		b = binary.AppendUvarint(b, uint64(len(resp.Aggs)))
		for _, a := range resp.Aggs {
			op, attr, err := splitAggName(a.Agg)
			if err != nil {
				return buf, err
			}
			b = append(b, byte(op), byte(attr))
			b = binary.AppendVarint(b, a.Group)
			b = appendFloat(b, a.Value)
			b = appendBool(b, a.Empty)
		}
		if resp.TraceID != 0 {
			b = appendProvTrailer(b, resp.TraceID, wireProvOf(resp.Prov))
		}
	case TypeClosed:
		b = binary.AppendVarint(b, int64(resp.Sub))
		b = appendString(b, resp.Reason)
	case TypeStats:
		// Stats responses are rare (operator polls, end-of-soak scrapes):
		// the counter struct rides as a JSON blob inside the binary frame
		// rather than dragging its ~30 fields into the hot codec.
		b = appendString(b, resp.Tag)
		b = binary.AppendVarint(b, resp.AtMS)
		blob, err := json.Marshal(resp.Stats)
		if err != nil {
			return buf, err
		}
		b = appendBytes(b, blob)
	case TypePong:
		b = appendString(b, resp.Tag)
	case TypeError:
		b = appendString(b, resp.Tag)
		b = appendString(b, resp.Error)
		b = appendString(b, resp.Code)
		b = binary.AppendVarint(b, resp.RetryAfterMS)
	}
	return b, nil
}

// appendUpdateFrame encodes one delivered update whole, directly from its
// simulation form — the zero-allocation fan-out path. It produces exactly
// the bytes appendResponseFrame(wireUpdate(u)) would, without building the
// intermediate Response, its WireRow slice or its string-keyed maps. The
// frame is head, body, optional trace trailer; the connection writer emits
// the same three pieces with the body cached per flush, and a keep or ref
// frame in place of the whole frame when subscribers share the body.
func appendUpdateFrame(buf []byte, u *Update) []byte {
	b := appendUpdateBody(appendUpdateHead(buf, u, shareNone, 0), u)
	if u.Trace != 0 {
		b = appendProvTrailer(b, u.Trace, u.Prov)
	}
	return b
}

// aggUpdate reports whether u travels as an agg frame rather than a rows
// frame.
func aggUpdate(u *Update) bool { return u.Rows == nil && u.Aggs != nil }

// appendUpdateHead begins a frame with the per-subscriber fields: frame
// kind, subscription id and sequence number, and for a keep or ref frame
// the slot.
func appendUpdateHead(buf []byte, u *Update, share frameShare, slot int) []byte {
	kind := updateKinds[share][0]
	if aggUpdate(u) {
		kind = updateKinds[share][1]
	}
	b := append(beginFrame(buf), WireVersion, kind)
	b = binary.AppendVarint(b, int64(u.Sub))
	b = binary.AppendUvarint(b, u.Seq)
	if share != shareNone {
		b = binary.AppendUvarint(b, uint64(slot))
	}
	return b
}

// appendUpdateBody encodes the part of an update frame every subscriber of
// the query shares: timestamp, degraded/coverage and the rows or aggregates.
func appendUpdateBody(b []byte, u *Update) []byte {
	b = binary.AppendVarint(b, int64(u.At.Milliseconds()))
	b = appendBool(b, u.Degraded)
	if u.Degraded {
		b = appendFloat(b, u.Coverage)
	}
	if !aggUpdate(u) {
		b = binary.AppendUvarint(b, uint64(len(u.Rows)))
		for i := range u.Rows {
			row := &u.Rows[i]
			b = binary.AppendVarint(b, int64(row.Node))
			b = binary.AppendUvarint(b, uint64(row.Values.Len()))
			for _, a := range allAttrs {
				if v, ok := row.Values.Get(a); ok {
					b = append(b, byte(a))
					b = appendFloat(b, v)
				}
			}
		}
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(u.Aggs)))
	for _, a := range u.Aggs {
		b = append(b, byte(a.Agg.Op), byte(a.Agg.Attr))
		b = binary.AppendVarint(b, a.Group)
		b = appendFloat(b, a.Value)
		b = appendBool(b, a.Empty)
	}
	return b
}

// decodeResponsePayload parses a binary response payload on its own; a
// keep or ref frame needs its connection's slot table and is an error.
func decodeResponsePayload(p []byte) (Response, error) { return decodeResponse(p, nil) }

// decodeResponse parses a binary response payload. A keep frame stores its
// decoded body in kept; a ref frame's Response carries the body of the slot
// it names — AtMS, Degraded, Coverage, Rows and Aggs shared, not copied.
func decodeResponse(p []byte, kept *keptTable) (Response, error) {
	r := frameReader{b: p}
	if v := r.byte(); r.err == nil && v != WireVersion {
		return Response{}, fmt.Errorf("gateway: unsupported wire version %d", v)
	}
	code := r.byte()
	typ, ok := codeToType[code]
	sk, shared := sharedKinds[code]
	if shared {
		if kept == nil {
			return Response{}, fmt.Errorf("gateway: shared-body frame %d outside a connection", code)
		}
		typ, ok = sk.typ, true
	}
	if r.err == nil && !ok {
		return Response{}, fmt.Errorf("gateway: unknown response code %d", code)
	}
	resp := Response{Type: typ}
	var keep *keptBody // the slot a keep frame fills once it decodes
	switch typ {
	case TypeHello:
		resp.Tag = r.str()
		resp.Session = r.str()
		resp.Token = r.str()
		if n := r.count(4); n > 0 {
			resp.Subs = make([]WireResumeInfo, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				resp.Subs = append(resp.Subs, WireResumeInfo{
					Sub:       SubID(r.varint()),
					QueryID:   query.ID(r.varint()),
					Canonical: r.str(),
					LastSeq:   r.uvarint(),
				})
			}
		}
	case TypeSubscribed:
		resp.Tag = r.str()
		resp.Sub = SubID(r.varint())
		resp.QueryID = query.ID(r.varint())
		resp.Shared = r.bool()
		resp.Resumed = r.bool()
		resp.Canonical = r.str()
		if r.more() {
			resp.TraceID = r.uvarint()
		}
	case TypeRows, TypeAgg:
		resp.Sub = SubID(r.varint())
		resp.Seq = r.uvarint()
		switch {
		case !shared:
			decodeUpdateBody(&r, &resp)
		case sk.share == shareKeep:
			if keep = r.slot(kept); keep != nil {
				*keep = keptBody{} // a keep that fails to decode leaves its slot empty
				decodeUpdateBody(&r, &resp)
			}
		default:
			kb := r.slot(kept)
			if kb != nil && kb.typ != typ {
				r.fail("ref to an empty or other-kind slot")
			} else if kb != nil {
				resp.AtMS, resp.Degraded, resp.Coverage, resp.Rows, resp.Aggs = kb.atMS, kb.degraded, kb.coverage, kb.rows, kb.aggs
			}
		}
		if r.more() {
			decodeProvTrailer(&r, &resp)
		}
	case TypeClosed:
		resp.Sub = SubID(r.varint())
		resp.Reason = r.str()
	case TypeStats:
		resp.Tag = r.str()
		resp.AtMS = r.varint()
		blob := r.bytes()
		if r.err == nil {
			var gm tier.GatewayMetrics
			if err := json.Unmarshal(blob, &gm); err != nil {
				return Response{}, fmt.Errorf("gateway: stats blob: %w", err)
			}
			resp.Stats = &gm
		}
	case TypePong:
		resp.Tag = r.str()
	case TypeError:
		resp.Tag = r.str()
		resp.Error = r.str()
		resp.Code = r.str()
		resp.RetryAfterMS = r.varint()
	}
	err := r.finish()
	if keep != nil && err == nil {
		*keep = keptBody{typ, resp.AtMS, resp.Degraded, resp.Coverage, resp.Rows, resp.Aggs}
	}
	return resp, err
}

// decodeUpdateBody parses what appendUpdateBody wrote into resp, whose
// Type says rows or aggregates.
func decodeUpdateBody(r *frameReader, resp *Response) {
	resp.AtMS = r.varint()
	resp.Degraded = r.bool()
	if resp.Degraded {
		resp.Coverage = r.float()
	}
	if resp.Type == TypeRows {
		if n := r.count(2); n > 0 {
			resp.Rows = make([]WireRow, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				row := WireRow{Node: topology.NodeID(r.varint())}
				nv := r.count(9)
				if r.err == nil {
					row.Values = make(map[string]float64, nv)
					for j := 0; j < nv && r.err == nil; j++ {
						a := field.Attr(r.byte())
						row.Values[a.String()] = r.float()
					}
				}
				resp.Rows = append(resp.Rows, row)
			}
		}
		return
	}
	if n := r.count(11); n > 0 {
		resp.Aggs = make([]WireAgg, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			ag := query.Agg{Op: query.AggOp(r.byte()), Attr: field.Attr(r.byte())}
			resp.Aggs = append(resp.Aggs, WireAgg{
				Agg:   ag.String(),
				Group: r.varint(),
				Value: r.float(),
				Empty: r.bool(),
			})
		}
	}
}

// splitAggName parses the "MAX(light)" rendering back into its codes for
// the generic response encoder (the hot path never goes through strings).
func splitAggName(s string) (query.AggOp, field.Attr, error) {
	open := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '(' {
			open = i
			break
		}
	}
	if open < 0 || len(s) == 0 || s[len(s)-1] != ')' {
		return 0, 0, fmt.Errorf("gateway: malformed aggregate name %q", s)
	}
	op, err := query.ParseAggOp(s[:open])
	if err != nil {
		return 0, 0, err
	}
	attr, err := field.ParseAttr(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return op, attr, nil
}

// --- WAL records ---

// WAL op codes (binary spelling of the walOp* strings).
var walOpToCode = map[string]byte{
	walOpRegister:    1,
	walOpSubscribe:   2,
	walOpUnsubscribe: 3,
	walOpClose:       4,
	walOpAdvance:     5,
}

var walCodeToOp = inverse(walOpToCode)

// appendWALFrame encodes one log record as a binary frame.
func appendWALFrame(buf []byte, rec *walRecord) ([]byte, error) {
	code, ok := walOpToCode[rec.Op]
	if !ok {
		return buf, fmt.Errorf("gateway: unknown wal op %q", rec.Op)
	}
	b := beginFrame(buf)
	b = append(b, WireVersion, code)
	b = binary.AppendVarint(b, rec.At)
	b = appendString(b, rec.Sess)
	b = appendString(b, rec.Token)
	b = binary.AppendVarint(b, int64(rec.Sub))
	b = appendString(b, rec.Query)
	if rec.Trace != 0 {
		b = binary.AppendUvarint(b, rec.Trace)
	}
	return b, nil
}

// decodeWALPayload parses a binary WAL record payload.
func decodeWALPayload(p []byte) (walRecord, error) {
	r := frameReader{b: p}
	if v := r.byte(); r.err == nil && v != WireVersion {
		return walRecord{}, fmt.Errorf("gateway: unsupported wal version %d", v)
	}
	code := r.byte()
	op, ok := walCodeToOp[code]
	if r.err == nil && !ok {
		return walRecord{}, fmt.Errorf("gateway: unknown wal code %d", code)
	}
	rec := walRecord{Op: op}
	rec.At = r.varint()
	rec.Sess = r.str()
	rec.Token = r.str()
	rec.Sub = SubID(r.varint())
	rec.Query = r.str()
	if r.more() {
		rec.Trace = r.uvarint()
	}
	return rec, r.finish()
}

// decodeFrame splits a raw frame (magic + length + payload) and dispatches
// on kind family; used by the fuzz harness to exercise the whole surface.
func decodeFrame(raw []byte) error {
	if len(raw) == 0 || raw[0] != FrameMagic {
		return fmt.Errorf("gateway: not a binary frame")
	}
	n, sz := binary.Uvarint(raw[1:])
	if sz <= 0 || n > maxFramePayload || uint64(len(raw)-1-sz) < n {
		return fmt.Errorf("gateway: bad frame length")
	}
	p := raw[1+sz : 1+sz+int(n)]
	// A payload is ambiguous between the three families without stream
	// context; try each — none may panic.
	_, errReq := decodeRequestPayload(p)
	_, errResp := decodeResponsePayload(p)
	_, errWAL := decodeWALPayload(p)
	if errReq != nil && errResp != nil && errWAL != nil {
		return errReq
	}
	return nil
}
