package main

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/sim"
)

// Load-model constants shared by every workload (see README.md).
const (
	quantum        = 2048 * time.Millisecond // virtual time per round
	quantumMS      = int64(quantum / time.Millisecond)
	inflightRounds = 8  // driver may run this many rounds ahead of the clients' reads
	probePeriod    = 30 // rounds between probe subscribes on the steady workloads
	probeLife      = 20 // rounds a probe subscription lives
	churnPeriod    = 8  // rounds between swaps per connection on churn
	numConns       = 2
)

// stackKind names the serving stack a workload drives.
type stackKind int

const (
	stackGateway stackKind = iota // one gateway.Gateway
	stackFull                     // share.Coordinator over a 4-shard federation.Router
)

// Full-stack shape: 4 shards of PaperGrid(4), 15 sensors each.
const (
	fullShards  = 4
	fullSide    = 4
	fullSensors = fullShards * (fullSide*fullSide - 1)
)

// spec is one workload: a stack, a load shape and the reason it exists.
type spec struct {
	name  string
	why   string
	stack stackKind
	side  int // single-gateway grid side
	// subsPerConn standing subscriptions are held by each of the numConns
	// connections for the whole measured window.
	subsPerConn int
	// refRounds is the fixed-work size ("-rounds ref"): about 20 s on the
	// 2-core reference box.
	refRounds int
	churn     bool
	gen       func(seed int64, s *spec) load
}

// load is what a seed generates: only these texts reach the program.
type load struct {
	// setup[c] is connection c's standing subscriptions, in subscribe order.
	setup [numConns][]string
	// fresh are queries disjoint from the standing set; odd probes cycle
	// through them (even probes duplicate a standing query).
	fresh []string
	// stream is the churn workload's arrival sequence.
	stream []string
}

var specs = []*spec{
	{
		name: "sim_heavy",
		why: "144-node network, 16 distinct random queries: Advance is ~all of wall and all of it is " +
			"network/node/radio/sim; fan-out and sharing idle",
		stack: stackGateway, side: 12, subsPerConn: 8, refRounds: 18000, gen: genSimHeavy,
	},
	{
		name: "fanout_heavy",
		why: "16-node network, 512 subscriptions deduplicated onto 16 queries: fan-out, codec, socket " +
			"and client decode dominate; a simulator gain should not move it",
		stack: stackGateway, side: 4, subsPerConn: 256, refRounds: 40000, gen: genFanoutHeavy,
	},
	{
		name: "full_stack",
		why: "share over a 4-shard router, 128 subscriptions on 48 cell-aligned region aggregates: the " +
			"only steady load where recombination and watermark merge do real work",
		stack: stackFull, subsPerConn: 64, refRounds: 16000, gen: genFullStack,
	},
	{
		name: "churn",
		why: "full stack with a subscribe/unsubscribe swap every 4 rounds from a 500-query stream: the " +
			"write side (parse, dedup, plan, tier-1 insert/terminate, flood/abort) beside the read side",
		stack: stackFull, subsPerConn: 16, refRounds: 16000, churn: true, gen: genChurn,
	},
}

// sensors is the size of the workload's sensor id space.
func (s *spec) sensors() int {
	if s.stack == stackFull {
		return fullSensors
	}
	return s.side*s.side - 1
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The §4.3 vocabulary (attributes nodeid/light/temp, MAX/MIN aggregates,
// range predicates covering 30-90 % of an attribute, epochs of 8192 to
// 24576 ms), drawn stratified: in every block of 16 queries the multiset of
// epochs, of query kinds and of predicate attributes and coverages is the
// same, following workload.Random's frequencies, and the seed decides how
// they combine and where each range sits. A seed therefore changes which
// queries run but not how many results per round they owe, so rates measured
// under different seeds are comparable.
var (
	stratEpochs = [16]time.Duration{
		8192, 8192, 8192, 8192, 8192, 8192, 12288, 12288, 12288, 12288, 12288, 16384, 16384, 16384, 20480, 24576,
	}
	stratPredAttrs = [16]field.Attr{
		field.AttrLight, field.AttrLight, field.AttrLight, field.AttrLight, field.AttrLight,
		field.AttrLight, field.AttrLight, field.AttrLight, field.AttrLight, field.AttrLight,
		field.AttrTemp, field.AttrTemp, field.AttrTemp, field.AttrTemp, field.AttrTemp, field.AttrNodeID,
	}
	// The select lists: eight aggregates and eight acquisitions over the
	// non-empty attribute subsets.
	stratAggs = [8]query.Agg{
		{Op: query.Max, Attr: field.AttrLight}, {Op: query.Min, Attr: field.AttrLight},
		{Op: query.Max, Attr: field.AttrTemp}, {Op: query.Min, Attr: field.AttrTemp},
		{Op: query.Max, Attr: field.AttrLight}, {Op: query.Min, Attr: field.AttrTemp},
		{Op: query.Max, Attr: field.AttrTemp}, {Op: query.Min, Attr: field.AttrLight},
	}
	stratAttrs = [8][]field.Attr{
		{field.AttrLight}, {field.AttrTemp}, {field.AttrNodeID, field.AttrLight}, {field.AttrLight, field.AttrTemp},
		{field.AttrNodeID, field.AttrTemp}, {field.AttrNodeID, field.AttrLight, field.AttrTemp}, {field.AttrLight}, {field.AttrTemp},
	}
)

// randomTexts returns n distinct stratified §4.3 queries over a network of
// `sensors` sensors, skipping any whose canonical key is already in seen.
func randomTexts(seed int64, n, sensors int, seen map[string]bool) []string {
	rng := sim.NewRand(seed)
	out := make([]string, 0, n)
	for len(out) < n {
		epochs, preds, selects, covers := rng.Perm(16), rng.Perm(16), rng.Perm(16), rng.Perm(16)
		for i := 0; i < 16 && len(out) < n; i++ {
			q := query.Query{Epoch: stratEpochs[epochs[i]] * time.Millisecond}
			if k := selects[i]; k < 8 {
				q.Aggs = []query.Agg{stratAggs[k]}
			} else {
				q.Attrs = stratAttrs[k-8]
			}
			attr := stratPredAttrs[preds[i]]
			lo, hi := attr.Range(sensors + 1)
			width := (hi - lo) * (0.3 + 0.6*(float64(covers[i])+rng.Float64())/16)
			start := lo + (hi-lo-width)*rng.Float64()
			q.Preds = []query.Predicate{{Attr: attr, Min: start, Max: start + width}}
			q = q.Normalize()
			if key := gateway.CanonicalKey(q); !seen[key] {
				seen[key] = true
				out = append(out, q.String())
			}
		}
	}
	return out
}

func genSimHeavy(seed int64, s *spec) load {
	seen := map[string]bool{}
	qs := randomTexts(seed, numConns*s.subsPerConn, s.sensors(), seen)
	var ld load
	for c := 0; c < numConns; c++ {
		ld.setup[c] = qs[c*s.subsPerConn : (c+1)*s.subsPerConn]
	}
	ld.fresh = randomTexts(seed+1, 16, s.sensors(), seen)
	return ld
}

func genFanoutHeavy(seed int64, s *spec) load {
	seen := map[string]bool{}
	pool := randomTexts(seed, 16, s.sensors(), seen)
	var ld load
	for c := 0; c < numConns; c++ {
		for i := 0; i < s.subsPerConn; i++ {
			ld.setup[c] = append(ld.setup[c], pool[(c*s.subsPerConn+i)%len(pool)])
		}
	}
	ld.fresh = randomTexts(seed+1, 16, s.sensors(), seen)
	return ld
}

// regionEpochs are the full-stack aggregates' epochs.
var regionEpochs = []time.Duration{2048 * time.Millisecond, 4096 * time.Millisecond, 8192 * time.Millisecond}

// regionText renders the aggregate over `cells` share cells starting at
// cell `start` (0-based), clipped to the sensor id space.
func regionText(start, cells int, epoch time.Duration) string {
	lo := start*share.DefaultCell + 1
	hi := (start + cells) * share.DefaultCell
	if hi > fullSensors {
		hi = fullSensors
	}
	return fmt.Sprintf("SELECT SUM(light), COUNT(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %dms",
		lo, hi, epoch.Milliseconds())
}

// regionShapes enumerates every (start cell, width 1..4) placement.
func regionShapes() [][2]int {
	ncell := (fullSensors + share.DefaultCell - 1) / share.DefaultCell
	var out [][2]int
	for w := 1; w <= 4; w++ {
		for s := 0; s+w <= ncell; s++ {
			out = append(out, [2]int{s, w})
		}
	}
	return out
}

// regionTexts draws a seeded permutation of the region placements per
// epoch. The epoch multiset is fixed (n/3 queries per epoch) so the update
// rate is the same for every seed; the seed chooses which regions.
func regionTexts(seed int64) (first48, rest []string) {
	rng := sim.NewRand(seed)
	shapes := regionShapes()
	per := 48 / len(regionEpochs)
	for _, ep := range regionEpochs {
		for i, j := range rng.Perm(len(shapes)) {
			t := regionText(shapes[j][0], shapes[j][1], ep)
			if i < per {
				first48 = append(first48, t)
			} else {
				rest = append(rest, t)
			}
		}
	}
	// Interleave epochs so cyclic assignment spreads them over both
	// connections.
	mixed := make([]string, 0, len(first48))
	for i := 0; i < per; i++ {
		for e := range regionEpochs {
			mixed = append(mixed, first48[e*per+i])
		}
	}
	return mixed, rest
}

func genFullStack(seed int64, s *spec) load {
	qs, rest := regionTexts(seed)
	var ld load
	for c := 0; c < numConns; c++ {
		for i := 0; i < s.subsPerConn; i++ {
			ld.setup[c] = append(ld.setup[c], qs[(c*s.subsPerConn+i)%len(qs)])
		}
	}
	rng := sim.NewRand(seed + 2)
	for _, j := range rng.Perm(len(rest))[:16] {
		ld.fresh = append(ld.fresh, rest[j])
	}
	return ld
}

func genChurn(seed int64, s *spec) load {
	const streamLen = 500
	rng := sim.NewRand(seed + 3)
	shapes := regionShapes()
	random := randomTexts(seed, streamLen/2, s.sensors(), map[string]bool{})
	var ld load
	for i := 0; i < streamLen; i++ {
		if i%2 == 0 {
			ld.stream = append(ld.stream, random[i/2])
			continue
		}
		sh := shapes[rng.Intn(len(shapes))]
		ld.stream = append(ld.stream, regionText(sh[0], sh[1], regionEpochs[rng.Intn(len(regionEpochs))]))
	}
	// The standing sets are the head of the stream; swaps continue from
	// there, connection c taking every numConns-th entry.
	for c := 0; c < numConns; c++ {
		for i := 0; i < s.subsPerConn; i++ {
			ld.setup[c] = append(ld.setup[c], ld.stream[(i*numConns+c)%streamLen])
		}
	}
	return ld
}

// texts lists every query text the load can send, for the parse and
// canonical-key timings.
func (ld *load) texts() []string {
	var out []string
	for c := range ld.setup {
		out = append(out, ld.setup[c]...)
	}
	out = append(out, ld.fresh...)
	out = append(out, ld.stream...)
	return out
}

// queryMeta is what the checker needs to know about a subscribed text.
type queryMeta struct {
	epochMS int64
	// region is the node-id span of a SUM/COUNT/AVG region aggregate (0 for
	// every other query): COUNT may not exceed it and AVG*COUNT must equal
	// SUM.
	region int
}

func metaOf(text string) (queryMeta, error) {
	q, err := query.Parse(text)
	if err != nil {
		return queryMeta{}, err
	}
	m := queryMeta{epochMS: q.Epoch.Milliseconds()}
	var sum, cnt, avg bool
	for _, a := range q.Aggs {
		switch a.Op {
		case query.Sum:
			sum = true
		case query.Count:
			cnt = true
		case query.Avg:
			avg = true
		}
	}
	if sum && cnt && avg {
		for _, p := range q.Preds {
			if p.Attr == field.AttrNodeID {
				m.region = int(p.Max) - int(p.Min) + 1
			}
		}
	}
	return m, nil
}
