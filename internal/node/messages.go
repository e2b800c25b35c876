package node

import (
	"repro/internal/cost"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
)

// QueryMsg propagates a (synthetic) query through the network. Per §3.2.2's
// query propagation phase, the sender piggybacks whether its own current
// readings satisfy the query so receivers learn which upper-level neighbors
// hold data.
type QueryMsg struct {
	Q query.Query
	// Start is the network-wide time of the query's first epoch.
	Start sim.Time
	// SenderHasData piggybacks the sender's current predicate match.
	SenderHasData bool
	// Hops counts propagation depth (diagnostics).
	Hops int
}

// AbortMsg floods a query abortion.
type AbortMsg struct {
	QID query.ID
}

// BeaconMsg is the periodic network-maintenance message of §4.1. It carries
// the sender's installed query IDs as an anti-entropy digest: a neighbor
// that knows a query the sender is missing re-sends its propagation message
// (repairing nodes that were down during the flood), and a neighbor that
// knows a query in the digest was aborted re-floods the abort.
type BeaconMsg struct {
	// QIDs is the digest as of the send, ascending, in a buffer of the
	// message's own.
	QIDs []query.ID

	// pkt is the packet the beacon travels in; a mote sends its next beacon
	// in the record the medium gave back.
	pkt radio.Message
}

// WakeMsg is the one-hop broadcast a waking node sends when its data starts
// satisfying queries, so lower-level neighbors consider it as a relay option
// again (§3.2.2).
type WakeMsg struct {
	// QIDs lists the queries the sender now has data for.
	QIDs []query.ID
}

// ResultMsg carries query results toward the base station. Exactly one of
// Row / States is set: acquisition messages carry one origin row, and
// aggregation messages carry partial aggregate states.
//
// A result message belongs to the mote that sent it. It and every slice in it
// are valid for a receiver only during the delivery: once the medium is
// finished with the message the sender builds its next one in the same
// memory, so a receiver copies out what it keeps.
type ResultMsg struct {
	// EpochT is the network-wide fire time of the epoch the data belongs to.
	EpochT sim.Time
	// QIDs lists the (synthetic) queries this message serves, in a buffer of
	// the message's own. Baseline (per-query) messages have exactly one
	// entry; a packed aggregation message lists the class of queries whose
	// partial states are States.
	QIDs []query.ID
	// Origin is the node whose reading produced Row (acquisition only).
	Origin topology.NodeID
	// Row holds the acquired attribute values (acquisition only).
	Row field.Values
	// States holds the partial aggregates (aggregation only), one per
	// (aggregate, GROUP BY bucket), carried once and valid for every query in
	// QIDs: queries share a message exactly when their partial states are
	// identical (§3.2.2).
	States []query.AggState
	// OwnQIDs lists the queries for which the *sender's own reading*
	// contributed to this message (as opposed to pure relaying). Neighbors
	// overhear it to learn who holds data for which queries — the §3.2.2
	// knowledge behind query-aware parent selection.
	OwnQIDs []query.ID
	// Reroutes counts link-failure reroutes of this message; capped to keep
	// a partitioned network from looping traffic forever.
	Reroutes int
	// Subsets optionally maps each multicast destination to the queries it
	// is responsible for forwarding; nil means every destination forwards
	// everything (§3.2.2's packet-header query mapping).
	Subsets []Subset

	// pkt is the packet this message travels in. A result message is put
	// on the air once, by the node that built it, so the two are one
	// allocation. shares and dests back Subsets and the packet's multicast
	// destination list.
	pkt    radio.Message
	shares []Subset
	dests  []topology.NodeID
}

// Subset is one destination's share of a multicast result message.
type Subset struct {
	Dest topology.NodeID
	QIDs []query.ID
}

// IsAggregation reports whether the message carries partial aggregates.
func (m *ResultMsg) IsAggregation() bool { return len(m.States) > 0 }

// QueriesFor returns the queries the given receiver must forward: the
// per-destination subset when present, otherwise all of them.
func (m *ResultMsg) QueriesFor(id topology.NodeID) []query.ID {
	if m.Subsets == nil {
		return m.QIDs
	}
	for _, sub := range m.Subsets {
		if sub.Dest == id {
			return sub.QIDs
		}
	}
	return nil
}

// --- On-air size model -------------------------------------------------

// QueryMsgBytes sizes a propagation message: header, epoch/start fields and
// the query body (attrs, aggs, predicate ranges). The base station's flood
// and every mote's relay are sized by it.
func QueryMsgBytes(q query.Query) int {
	return cost.HeaderBytes + 6 +
		cost.BytesPerAttr*len(q.Attrs) +
		cost.BytesPerAgg*len(q.Aggs) +
		5*len(q.Preds)
}

// resultMsgBytes sizes a result message: header, origin/epoch fields, the
// payload (row values or aggregate states — the states shared between the
// message's queries are carried once), per-query tags when the message
// serves several queries, and per-extra-destination addressing for
// multicast.
func resultMsgBytes(m *ResultMsg) int {
	b := cost.HeaderBytes
	if m.IsAggregation() {
		b += cost.BytesPerAgg * len(m.States)
	} else {
		b += cost.BytesPerAttr * m.Row.Len()
	}
	if len(m.QIDs) > 1 {
		b += cost.BytesPerQueryTag * len(m.QIDs)
	}
	if len(m.Subsets) > 1 {
		b += 2 * (len(m.Subsets) - 1)
	}
	return b
}

// AbortMsgBytes sizes an abort message: header and the query ID, at the
// base station and at every relay.
func AbortMsgBytes() int { return cost.HeaderBytes + 2 }
func beaconMsgBytes(installed int) int {
	return cost.HeaderBytes + 4 + cost.BytesPerQueryTag*installed
}
func wakeMsgBytes(n int) int {
	return cost.HeaderBytes + 2 + cost.BytesPerQueryTag*n
}
