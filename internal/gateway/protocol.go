package gateway

import (
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/tier"
	"repro/internal/topology"
)

// Wire protocol of the serving tier (ttmqo-serve), in its newline-delimited
// JSON spelling: one Request per line from the client, one Response per line
// from the server. A client that negotiates binary (codec.go) gets the same
// messages as length-prefixed frames; one that does not — nc, a script —
// stays on NDJSON. Subscribing starts an asynchronous stream of "rows"/
// "agg" responses tagged with the subscription id; the stream ends with a
// single "closed" response carrying the reason.

// Request operations.
const (
	OpHello       = "hello"
	OpSubscribe   = "subscribe"
	OpUnsubscribe = "unsubscribe"
	OpStats       = "stats"
	// OpPing is the client heartbeat: it refreshes the server's read
	// deadline and is answered with a TypePong line. Clients that expect to
	// idle longer than the server's ReadTimeout must ping.
	OpPing = "ping"
	// OpResume continues a detached subscription after a reconnect,
	// replaying every retained update with sequence number > After.
	OpResume = "resume"
)

// Request is one client line.
type Request struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Client optionally names the session (OpHello); the server derives a
	// unique name from the connection otherwise.
	Client string `json:"client,omitempty"`
	// Token re-attaches an existing session (OpHello after a disconnect or
	// gateway crash): quote the token from the first hello's response.
	Token string `json:"token,omitempty"`
	// Query is the TinyDB-dialect query text (OpSubscribe).
	Query string `json:"query,omitempty"`
	// Sub identifies the subscription (OpUnsubscribe, OpResume).
	Sub SubID `json:"sub,omitempty"`
	// After is the last sequence number the client processed (OpResume).
	After uint64 `json:"after,omitempty"`
	// Tag is echoed on the direct response so clients can correlate
	// pipelined requests.
	Tag string `json:"tag,omitempty"`
	// Wire requests an outbound encoding on OpHello: "binary" switches the
	// server's responses to the length-prefixed binary framing after the
	// (always-JSON) hello response; empty or "json" keeps NDJSON. A client
	// that sends binary-framed requests gets binary responses regardless.
	Wire string `json:"wire,omitempty"`
	// DeadlineMS attaches a mailbox deadline budget to OpSubscribe and
	// OpResume, in milliseconds: if the command waits longer than the
	// budget in the serving tier's group-commit mailbox it is shed with a
	// TypeError response carrying Code "overloaded" and a retry-after
	// hint, instead of being applied late. Zero means the server default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// TraceID optionally pins the causal-trace identity of an OpSubscribe:
	// every span and provenance record the serving tiers emit for this
	// subscription carries it. Zero lets the server derive a deterministic
	// trace ID from the session name and subscription id. Optional on the
	// wire — pre-tracing peers simply omit it.
	TraceID uint64 `json:"trace_id,omitempty"`
}

// Response types.
const (
	TypeHello      = "hello"
	TypeSubscribed = "subscribed"
	TypeRows       = "rows"
	TypeAgg        = "agg"
	TypeClosed     = "closed"
	TypeStats      = "stats"
	TypePong       = "pong"
	TypeError      = "error"
)

// WireResumeInfo lists one resumable subscription in a re-attach hello
// response: issue an OpResume with Sub and the last sequence number the
// client saw (at most LastSeq) to continue the stream.
type WireResumeInfo struct {
	Sub       SubID    `json:"sub"`
	QueryID   query.ID `json:"query_id"`
	Canonical string   `json:"canonical"`
	LastSeq   uint64   `json:"last_seq"`
}

// WireRow is one delivered acquisition row.
type WireRow struct {
	Node   topology.NodeID    `json:"node"`
	Values map[string]float64 `json:"values"`
}

// WireAgg is one delivered aggregate value.
type WireAgg struct {
	Agg   string  `json:"agg"`
	Group int64   `json:"group,omitempty"`
	Value float64 `json:"value"`
	Empty bool    `json:"empty,omitempty"`
}

// Response is one server line.
type Response struct {
	Type string `json:"type"`
	Tag  string `json:"tag,omitempty"`
	// Session is the registered session name (TypeHello).
	Session string `json:"session,omitempty"`
	// Token is the session's resume token (TypeHello); quote it in a later
	// hello to re-attach after a disconnect or server crash.
	Token string `json:"token,omitempty"`
	// Subs lists the resumable subscriptions on a re-attach (TypeHello with
	// a token).
	Subs []WireResumeInfo `json:"subs,omitempty"`
	// Sub identifies the subscription the line belongs to.
	Sub SubID `json:"sub,omitempty"`
	// Seq is the per-subscription delivery sequence number (TypeRows,
	// TypeAgg) — the client's resume cursor and dedup key.
	Seq uint64 `json:"seq,omitempty"`
	// Resumed marks a TypeSubscribed response produced by OpResume.
	Resumed bool `json:"resumed,omitempty"`
	// QueryID is the shared in-network query (TypeSubscribed).
	QueryID query.ID `json:"query_id,omitempty"`
	// Shared reports a dedup hit (TypeSubscribed).
	Shared bool `json:"shared,omitempty"`
	// Canonical is the canonical form the query was cached under
	// (TypeSubscribed).
	Canonical string `json:"canonical,omitempty"`
	// AtMS is the epoch's virtual timestamp in milliseconds (TypeRows,
	// TypeAgg) or the current virtual time (TypeStats).
	AtMS int64 `json:"at_ms,omitempty"`
	// Rows carries one acquisition epoch (TypeRows).
	Rows []WireRow `json:"rows,omitempty"`
	// Aggs carries one aggregation epoch (TypeAgg).
	Aggs []WireAgg `json:"aggs,omitempty"`
	// Reason says why the subscription ended (TypeClosed).
	Reason string `json:"reason,omitempty"`
	// Stats is the gateway counter snapshot (TypeStats).
	Stats *tier.GatewayMetrics `json:"stats,omitempty"`
	// Error is the failure message (TypeError).
	Error string `json:"error,omitempty"`
	// Code classifies a TypeError ("overloaded" is the only code so far:
	// the serving tier shed the request under admission control); empty
	// for plain protocol or validation failures.
	Code string `json:"code,omitempty"`
	// RetryAfterMS is the server's backoff floor for an "overloaded"
	// error, in milliseconds; clients jitter on top of it, never below.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Degraded marks a TypeRows/TypeAgg epoch released without full
	// federation shard coverage (a circuit breaker excluded one or more
	// spanned shards); Coverage is then the contributing fraction.
	Degraded bool    `json:"degraded,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	// TraceID is the subscription's causal-trace identity: on TypeSubscribed
	// it echoes the trace the serving tier assigned (client-pinned or
	// derived), and on TypeRows/TypeAgg it keys the delivery into
	// /tracez?trace=<id>. Zero when tracing is disabled — the frame is then
	// byte-identical to the pre-tracing encoding.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Prov is the delivery's compact provenance record (TypeRows, TypeAgg):
	// which federation shards contributed, cross-query sharing reuse, cache
	// replay, and the brownout rung in force. Present only on traced
	// deliveries with something to report.
	Prov *WireProv `json:"prov,omitempty"`
}

// WireProv is the provenance record stamped on traced deliveries: enough to
// reconstruct where a result came from without fetching the full trace.
type WireProv struct {
	// ShardMask is a bitmask of contributing federation shards (bit k =
	// shard k); zero outside federated deployments.
	ShardMask uint64 `json:"shard_mask,omitempty"`
	// Frags and Reused count the subscription's partial-aggregate fragments
	// and how many were satisfied by cross-query sharing (CSE hits).
	Frags  int `json:"frags,omitempty"`
	Reused int `json:"reused,omitempty"`
	// CacheHit marks epochs replayed from the gateway's windowed result
	// cache rather than computed live.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Rung is the brownout rung in force when the epoch was delivered.
	Rung int `json:"rung,omitempty"`
}

// CodeOverloaded is the Response.Code for admission-control rejections.
const CodeOverloaded = "overloaded"

// wireUpdate converts a delivered update to its wire form.
func wireUpdate(u Update) Response {
	r := Response{Sub: u.Sub, Seq: u.Seq, AtMS: int64(u.At.Milliseconds()),
		Degraded: u.Degraded, Coverage: u.Coverage}
	// Provenance rides only on traced deliveries, mirroring the binary
	// encoder: untraced output stays byte-identical to the pre-tracing wire.
	if u.Trace != 0 {
		r.TraceID = u.Trace
		if !u.Prov.Empty() {
			r.Prov = &WireProv{
				ShardMask: u.Prov.Shards,
				Frags:     int(u.Prov.Frags),
				Reused:    int(u.Prov.Reused),
				CacheHit:  u.Prov.CacheHit,
				Rung:      int(u.Prov.Rung),
			}
		}
	}
	if !aggUpdate(&u) {
		r.Type = TypeRows
		r.Rows = make([]WireRow, 0, len(u.Rows))
		for _, row := range u.Rows {
			vals := make(map[string]float64, row.Values.Len())
			row.Values.Each(func(a field.Attr, v float64) { vals[a.String()] = v })
			r.Rows = append(r.Rows, WireRow{Node: row.Node, Values: vals})
		}
		return r
	}
	r.Type = TypeAgg
	r.Aggs = make([]WireAgg, 0, len(u.Aggs))
	for _, a := range u.Aggs {
		r.Aggs = append(r.Aggs, WireAgg{
			Agg:   a.Agg.String(),
			Group: a.Group,
			Value: a.Value,
			Empty: a.Empty,
		})
	}
	return r
}
