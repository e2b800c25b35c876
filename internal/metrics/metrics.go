// Package metrics collects the quantities the paper's evaluation reports:
// per-node radio transmission time, message counts by kind, and
// retransmissions. The headline metric is the *average transmission time* —
// "the average percentage of transmission time spent on each node for all
// running queries over the simulation time" (§4.1).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/topology"
)

// Kind classifies messages for accounting (§4.1 counts result, query
// propagation/abortion, maintenance, and retransmission messages). The
// radio tags every message with one; the collector counts by it.
type Kind uint8

// Message kinds. The zero Kind is an unclassified message.
const (
	KindResult Kind = iota + 1
	KindQuery
	KindAbort
	KindBeacon
	KindWake

	numKinds
)

// String returns the accounting label of the kind.
func (k Kind) String() string {
	switch k {
	case KindResult:
		return "result"
	case KindQuery:
		return "query"
	case KindAbort:
		return "abort"
	case KindBeacon:
		return "beacon"
	case KindWake:
		return "wake"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// kindOf is the inverse of Kind.String over the counted kinds.
func kindOf(label string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == label {
			return k, true
		}
	}
	return 0, false
}

// Collector accumulates radio activity during one simulation run. It is not
// safe for concurrent use; the discrete-event engine serializes all access.
type Collector struct {
	txTime   []time.Duration // per node, indexed by NodeID
	samples  []int           // per node: attribute samples acquired
	counts   [numKinds]int   // message counts by kind
	perNode  [numKinds][]int // message counts by kind, per sender
	messages int             // total messages put on the air (incl. retries)
	retrans  int
	dropped  int
	clipped  int   // metric updates addressed to out-of-range node IDs
	payload  int64 // total bytes transmitted (incl. retries)
	nodes    int
	latency  stats.Series // epoch fire → base-station arrival, seconds
	calls    int          // deliveries the medium handed to receivers
	// rxFrom derives receive airtime (see SetRxSource).
	rxFrom func(topology.NodeID) time.Duration
}

// NewCollector returns a collector for a deployment of n nodes.
func NewCollector(n int) *Collector {
	c := &Collector{
		txTime:  make([]time.Duration, n),
		samples: make([]int, n),
		nodes:   n,
	}
	for k := range c.perNode {
		c.perNode[k] = make([]int, n)
	}
	return c
}

// AddTxTime accrues radio-busy time for a node. Every transmission attempt
// accrues, including ones that end in a collision — retransmission cost is
// real cost (§4.1 counts retransmission messages). Out-of-range node IDs
// accrue nothing but are counted in Clipped so lost accounting is visible.
func (c *Collector) AddTxTime(id topology.NodeID, d time.Duration) {
	if int(id) < 0 || int(id) >= len(c.txTime) {
		c.clipped++
		return
	}
	c.txTime[id] += d
}

// CountSamples records n attribute acquisitions at a node (one per sampled
// attribute per shared acquisition). Out-of-range node IDs are counted in
// Clipped.
func (c *Collector) CountSamples(id topology.NodeID, n int) {
	if int(id) < 0 || int(id) >= len(c.samples) {
		c.clipped++
		return
	}
	c.samples[id] += n
}

// SetRxSource attaches where receive airtime is read from. Every in-range
// radio hears every transmission, addressed or not, so overhearing costs
// energy too; the radio medium derives each node's total from its
// neighbors' delivered airtime rather than accruing it receiver by receiver.
func (c *Collector) SetRxSource(src func(topology.NodeID) time.Duration) { c.rxFrom = src }

// RxTime returns the accumulated receive airtime of one node: zero without
// a source, or for an ID outside the deployment.
func (c *Collector) RxTime(id topology.NodeID) time.Duration {
	if c.rxFrom == nil || int(id) < 0 || int(id) >= c.nodes {
		return 0
	}
	return c.rxFrom(id)
}

// CountHandlerCall records one delivery the medium handed to a receiver.
func (c *Collector) CountHandlerCall() { c.calls++ }

// HandlerCalls returns how many deliveries the medium handed to receivers:
// the addressed, declared-overhearer and listening radios it called.
func (c *Collector) HandlerCalls() int { return c.calls }

// Samples returns the attribute acquisitions of one node.
func (c *Collector) Samples(id topology.NodeID) int {
	if int(id) >= len(c.samples) {
		return 0
	}
	return c.samples[id]
}

// CountMessage records one message of the given kind put on the air by src.
// Kinds beyond the declared ones are counted as unclassified.
func (c *Collector) CountMessage(kind Kind, src topology.NodeID, bytes int) {
	if kind >= numKinds {
		kind = 0
	}
	c.counts[kind]++
	c.messages++
	c.payload += int64(bytes)
	if per := c.perNode[kind]; int(src) < len(per) {
		per[src]++
	}
}

// MessagesFrom returns how many messages of one kind a node has sent.
func (c *Collector) MessagesFrom(kind string, src topology.NodeID) int {
	k, ok := kindOf(kind)
	if !ok || int(src) >= len(c.perNode[k]) {
		return 0
	}
	return c.perNode[k][src]
}

// SendersOf returns the number of distinct nodes that sent at least one
// message of the given kind (the "involved nodes" count of the Figure 2
// worked example).
func (c *Collector) SendersOf(kind string) int {
	k, ok := kindOf(kind)
	if !ok {
		return 0
	}
	n := 0
	for _, cnt := range c.perNode[k] {
		if cnt > 0 {
			n++
		}
	}
	return n
}

// AddLatency records how long one result message took from its epoch's
// fire instant to base-station arrival.
func (c *Collector) AddLatency(d time.Duration) {
	if d >= 0 {
		c.latency.Add(d.Seconds())
	}
}

// Latency returns the result-delivery latency statistics (mean, stddev,
// min, max in seconds).
func (c *Collector) Latency() *stats.Series { return &c.latency }

// CountRetransmission records a collision-induced retransmission.
func (c *Collector) CountRetransmission() { c.retrans++ }

// CountDrop records a message abandoned after exhausting retries.
func (c *Collector) CountDrop() { c.dropped++ }

// TxTime returns the accumulated radio-busy time of one node.
func (c *Collector) TxTime(id topology.NodeID) time.Duration {
	if int(id) >= len(c.txTime) {
		return 0
	}
	return c.txTime[id]
}

// TotalTxTime returns the network-wide radio-busy time.
func (c *Collector) TotalTxTime() time.Duration {
	var sum time.Duration
	for _, d := range c.txTime {
		sum += d
	}
	return sum
}

// AvgTransmissionTime returns the paper's metric: the mean, over all nodes,
// of the fraction of the simulated interval each node spent transmitting.
// The result is a fraction in [0, 1]; multiply by 100 for the percentage the
// figures plot.
func (c *Collector) AvgTransmissionTime(simTime time.Duration) float64 {
	if simTime <= 0 || len(c.txTime) == 0 {
		return 0
	}
	var sum float64
	for _, d := range c.txTime {
		sum += d.Seconds() / simTime.Seconds()
	}
	return sum / float64(len(c.txTime))
}

// Messages returns the total number of transmissions, including retries.
func (c *Collector) Messages() int { return c.messages }

// MessagesOf returns the count of messages of one kind.
func (c *Collector) MessagesOf(kind string) int {
	k, ok := kindOf(kind)
	if !ok {
		return 0
	}
	return c.counts[k]
}

// Retransmissions returns the number of collision-induced retries.
func (c *Collector) Retransmissions() int { return c.retrans }

// Dropped returns the number of messages abandoned after max retries.
func (c *Collector) Dropped() int { return c.dropped }

// Clipped returns how many metric updates (tx accrual, sample counts)
// addressed node IDs outside the deployment and were discarded. A non-zero
// value means some radio accounting was silently lost.
func (c *Collector) Clipped() int { return c.clipped }

// Nodes returns the deployment size the collector was built for.
func (c *Collector) Nodes() int { return c.nodes }

// Bytes returns the total bytes transmitted.
func (c *Collector) Bytes() int64 { return c.payload }

// Kinds returns the message-kind labels seen so far, sorted.
func (c *Collector) Kinds() []string {
	kinds := make([]string, 0, len(c.counts))
	for k, n := range c.counts {
		if n > 0 {
			kinds = append(kinds, Kind(k).String())
		}
	}
	sort.Strings(kinds)
	return kinds
}

// String summarizes the collector for logs and the shell.
func (c *Collector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "messages=%d retrans=%d dropped=%d bytes=%d", c.messages, c.retrans, c.dropped, c.payload)
	if c.clipped > 0 {
		fmt.Fprintf(&sb, " clipped=%d", c.clipped)
	}
	for _, k := range c.Kinds() {
		fmt.Fprintf(&sb, " %s=%d", k, c.MessagesOf(k))
	}
	return sb.String()
}

// Savings returns the fractional reduction of a scheme's metric relative to
// a baseline metric: (baseline − value) / baseline. Figures 3 and 5 report
// this as a percentage.
func Savings(baseline, value float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - value) / baseline
}
