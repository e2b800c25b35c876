package network

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// goldenRun executes the pinned scenario under one scheme and returns a
// one-line digest of everything the simulator is contracted to reproduce
// bit for bit: every delivered (query, epoch, values) in delivery order,
// per-kind message counts, retransmissions, bytes, total airtime, receive
// airtime (rxDigest), and the number of events fired.
//
// The scenario is PaperGrid(12) with 16 seeded §4.3 queries, a grouped and a
// windowed query (the row paths the random vocabulary does not reach), a
// scripted post/cancel schedule, collisions and link loss, random MTBF/MTTR
// failures and a scripted region cut — so floods, aborts, anti-entropy
// repair, retries, reroutes, sleep and every result path run.
func goldenRun(t *testing.T, scheme Scheme) string {
	t.Helper()
	topo, err := topology.PaperGrid(12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Topo:     topo,
		Scheme:   scheme,
		Seed:     42,
		Radio:    radio.Config{CollisionFactor: radio.DefaultCollisionFactor, LossRate: 0.01},
		Failures: FailureConfig{MTBF: 20 * time.Minute, MTTR: 20 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	sum := digestResults(s)

	// 16 seeded §4.3 queries: twelve at t=0, the rest staggered; a third of
	// them cancelled along the way.
	qs := workload.Random(workload.RandomConfig{Seed: 11, NumQueries: 16})
	for i, w := range qs {
		at := time.Duration(0)
		if i >= 12 {
			at = time.Duration(i-11) * 17 * time.Second
		}
		s.PostAt(at, w.Query)
		if i%3 == 1 {
			s.CancelAt(at+time.Duration(40+7*i)*time.Second, w.Query.ID)
		}
	}
	grouped := query.MustParse("SELECT AVG(light) WHERE light >= 100 AND light <= 800 GROUP BY nodeid BUCKET 36 EPOCH DURATION 8192")
	grouped.ID = 17
	s.PostAt(9*time.Second, grouped)
	windowed := query.MustParse("SELECT WINAVG(temp, 4) WHERE temp >= 10 AND temp <= 90 EPOCH DURATION 4096")
	windowed.ID = 18
	s.PostAt(21*time.Second, windowed)
	s.CancelAt(150*time.Second, 18)

	// A scripted partition on top of the random failures: cut one level-1
	// subtree, heal it, and fail a single relay across a cancel.
	s.Engine().Schedule(60*time.Second, func() { s.FailRegion(13) })
	s.Engine().Schedule(95*time.Second, func() { s.HealRegion(13) })
	s.Engine().Schedule(70*time.Second, func() { s.FailNode(27) })
	s.Engine().Schedule(130*time.Second, func() { s.ReviveNode(27) })

	s.Run(4 * time.Minute)

	m := s.Metrics()
	return fmt.Sprintf("results=%016x result=%d query=%d abort=%d beacon=%d wake=%d retrans=%d bytes=%d txtime=%d %s failures=%d fired=%d",
		sum(),
		m.MessagesOf("result"), m.MessagesOf("query"), m.MessagesOf("abort"),
		m.MessagesOf("beacon"), m.MessagesOf("wake"),
		m.Retransmissions(), m.Bytes(), int64(m.TotalTxTime()), rxDigest(s), s.Failures(), s.Engine().Fired())
}

// rxDigest pins what every powered in-range radio was charged for receiving:
// the total and an FNV over each node's RxTime. Receive airtime feeds energy
// and lifetime, and it is charged whether or not the receiver's handler runs.
func rxDigest(s *Simulation) string {
	d := digest{fnv.New64a()}
	var total time.Duration
	for id := range s.Topology().Size() {
		rx := s.Metrics().RxTime(topology.NodeID(id))
		total += rx
		d.put(uint64(rx))
	}
	return fmt.Sprintf("rxtime=%d rx=%016x", int64(total), d.h.Sum64())
}

// digest is an FNV-1a hash over a stream of 64-bit words.
type digest struct{ h hash.Hash64 }

func (d digest) put(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		d.h.Write(b[:])
	}
}

func (d digest) row(vals field.Values) {
	d.put(uint64(vals.Len()))
	vals.Each(func(a field.Attr, v float64) { d.put(uint64(a), math.Float64bits(v)) })
}

// digestResults hashes every delivered (query, epoch, values) of s in
// delivery order; the returned func reads the hash so far.
func digestResults(s *Simulation) func() uint64 {
	d := digest{fnv.New64a()}
	s.Results().OnRows = func(ur core.UserRows) {
		d.put(uint64(ur.QueryID), uint64(ur.Time), uint64(len(ur.Rows)))
		for _, r := range ur.Rows {
			d.put(uint64(r.Node), uint64(r.Time))
			d.row(r.Values)
		}
	}
	s.Results().OnAggs = func(ua core.UserAgg) {
		d.put(uint64(ua.QueryID), uint64(ua.Time), uint64(len(ua.Results)))
		for _, r := range ua.Results {
			empty := uint64(0)
			if r.Empty {
				empty = 1
			}
			d.put(uint64(r.Time), uint64(r.Agg.Op), uint64(r.Agg.Attr), uint64(r.Group), math.Float64bits(r.Value), empty)
		}
	}
	return d.h.Sum64
}

// shardQuery is the i-th of the overlapping region aggregates a full_stack
// shard carries: SUM/COUNT/AVG over a nodeid range, at 2048/4096/8192 ms.
func shardQuery(i int) query.Query {
	lo := 1 + (i*4)%11
	hi := min(lo+2+3*(i%4), 15)
	q := query.MustParse(fmt.Sprintf("SELECT SUM(light), COUNT(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %d",
		lo, hi, 2048<<(i%3)))
	q.ID = query.ID(i + 1)
	return q
}

// goldenShardRun is goldenRun in the shape of one full_stack shard, where the
// in-network aggregation path is most of the work: PaperGrid(4) carrying a
// dozen overlapping region SUM/COUNT/AVG aggregates at 2048/4096/8192 ms —
// so packed classes split and merge at the two busy relays — and one GROUP BY
// query, posted and cancelled mid-run, under collisions, link loss and one
// relay failed across several epochs (no-ACK reroutes, late forwards). Besides
// the delivered results it digests every message the base station is
// addressed: epoch, ids, per-query states or row, on-air bytes.
func goldenShardRun(t *testing.T, scheme Scheme) string {
	t.Helper()
	topo, err := topology.PaperGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Topo:   topo,
		Scheme: scheme,
		Seed:   7,
		Radio:  radio.Config{CollisionFactor: radio.DefaultCollisionFactor, LossRate: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := digestResults(s)
	air := digest{fnv.New64a()}
	s.medium.SetHandler(topology.BaseStation, func(d radio.Delivery) {
		if msg, ok := d.Msg.Payload.(*node.ResultMsg); ok && d.Addressed {
			mine := msg.QueriesFor(topology.BaseStation)
			air.put(uint64(msg.EpochT), uint64(d.Msg.Src), uint64(d.Msg.Bytes), uint64(len(msg.QIDs)), uint64(len(mine)), uint64(len(msg.OwnQIDs)))
			for _, qid := range mine {
				air.put(uint64(qid))
				for _, st := range msg.States {
					air.put(uint64(st.Agg.Op), uint64(st.Agg.Attr), uint64(st.Group), uint64(st.Count),
						math.Float64bits(st.Sum), math.Float64bits(st.MinV), math.Float64bits(st.MaxV))
				}
			}
			if !msg.IsAggregation() {
				air.put(uint64(msg.Origin))
				air.row(msg.Row)
			}
		}
		s.onReceive(d)
	})

	for i := 0; i < 12; i++ {
		q := shardQuery(i)
		at := time.Duration(0)
		if i >= 8 {
			at = time.Duration(i-7) * 11 * time.Second
		}
		s.PostAt(at, q)
		if i%4 == 2 {
			s.CancelAt(at+time.Duration(50+5*i)*time.Second, q.ID)
		}
	}
	grouped := query.MustParse("SELECT MAX(temp), AVG(temp) GROUP BY nodeid BUCKET 4 EPOCH DURATION 4096")
	grouped.ID = 13
	s.PostAt(6*time.Second, grouped)

	// Relay 6 fails just before its slot of one epoch and stays down across
	// the next several, so its children's partials go unacknowledged and
	// reroute through 9; relay 9 takes a short outage later.
	s.Engine().Schedule(sim.Time(20*2048*time.Millisecond+250*time.Millisecond), func() { s.FailNode(6) })
	s.Engine().Schedule(70*time.Second, func() { s.ReviveNode(6) })
	s.Engine().Schedule(100*time.Second, func() { s.FailNode(9) })
	s.Engine().Schedule(109*time.Second, func() { s.ReviveNode(9) })

	s.Run(3 * time.Minute)

	m := s.Metrics()
	return fmt.Sprintf("results=%016x air=%016x result=%d query=%d abort=%d beacon=%d wake=%d retrans=%d bytes=%d txtime=%d %s fired=%d",
		sum(), air.h.Sum64(),
		m.MessagesOf("result"), m.MessagesOf("query"), m.MessagesOf("abort"),
		m.MessagesOf("beacon"), m.MessagesOf("wake"),
		m.Retransmissions(), m.Bytes(), int64(m.TotalTxTime()), rxDigest(s), s.Engine().Fired())
}

// TestSimulationGolden pins the simulator's output bit for bit (DESIGN.md §5
// invariant 6, made absolute): the digests below were computed before the
// simulator core was flattened, so any change to event order, RNG draw
// order, float summation order or on-air sizes shows up here, in tier-1,
// not only in the end-to-end benchmark's fingerprint. The rxtime/rx fields
// were computed before the medium stopped calling receivers that cannot act
// (DESIGN.md §5 invariant 14): every in-range radio is still charged.
func TestSimulationGolden(t *testing.T) {
	golden := map[Scheme]string{
		Baseline:      "results=9eb3dd90ff04873a result=63601 query=6482 abort=1610 beacon=1024 wake=0 retrans=12921 bytes=1197041 txtime=394418528000 rxtime=5200503296000 rx=096e8c22432a1419 failures=29 fired=226034",
		BSOnly:        "results=bcf9ed511f8d8a37 result=52055 query=5908 abort=3646 beacon=1029 wake=0 retrans=15673 bytes=1002265 txtime=333747120000 rxtime=4129807536000 rx=13a1622d966a6736 failures=29 fired=147163",
		InNetworkOnly: "results=d286c73f567ce9ac result=60145 query=6430 abort=1537 beacon=1024 wake=19 retrans=16951 bytes=1146584 txtime=376799472000 rxtime=4609251664000 rx=58aaf9e6cbc44640 failures=29 fired=162188",
		TTMQO:         "results=4652c8751bc18e28 result=50047 query=5939 abort=3714 beacon=1010 wake=20 retrans=15033 bytes=974306 txtime=324115648000 rxtime=4027895664000 rx=6d8dc255ae640a73 failures=29 fired=143342",
	}
	shard := map[Scheme]string{
		Baseline:      "results=024317768f9de948 air=87a74cd08e85fcec result=4609 query=146 abort=46 beacon=76 wake=0 retrans=312 bytes=125682 txtime=35895856000 rxtime=356646240000 rx=ac25da4a68ba20e3 fired=19024",
		BSOnly:        "results=b9f305d884399872 air=b2341805363252e3 result=4816 query=148 abort=52 beacon=78 wake=0 retrans=509 bytes=131085 txtime=37453680000 rxtime=358332400000 rx=8d5f19cfb8f0d8a9 fired=13246",
		InNetworkOnly: "results=38056fb161984859 air=c4d94919540e25c7 result=2436 query=148 abort=46 beacon=74 wake=0 retrans=173 bytes=72299 txtime=20446192000 rxtime=205916848000 rx=5ba3be866a1b9738 fired=8466",
		TTMQO:         "results=a0aab1fd7ba9f999 air=ab0fe55b7c729146 result=2436 query=148 abort=46 beacon=74 wake=0 retrans=173 bytes=72302 txtime=20446816000 rxtime=205916848000 rx=5ba3be866a1b9738 fired=8466",
	}
	for _, scheme := range AllSchemes() {
		if got := goldenRun(t, scheme); got != golden[scheme] {
			t.Errorf("%v digest changed:\n got %s\nwant %s", scheme, got, golden[scheme])
		}
		if got := goldenShardRun(t, scheme); got != shard[scheme] {
			t.Errorf("%v shard digest changed:\n got %s\nwant %s", scheme, got, shard[scheme])
		}
	}
}

// TestSimulationRoundAllocBudget gates the simulator's allocation rate, the
// machine-independent half of its speed: one 2048 ms round of the 144-mote,
// 16-query TTMQO network — the shape of the end-to-end benchmark's sim_heavy
// workload, whose ledger reports the same quantity as
// network.allocs_per_round — took ~4 700 allocations when motes kept their
// state in maps and every hop boxed a closure, and takes ~750 now.
func TestSimulationRoundAllocBudget(t *testing.T) {
	const budget = 1000
	topo, err := topology.PaperGrid(12)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Topo: topo, Scheme: TTMQO, Seed: 1, DiscardResults: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload.Random(workload.RandomConfig{Seed: 1, NumQueries: 16}) {
		if _, err := s.Post(w.Query); err != nil {
			t.Fatal(err)
		}
	}
	const round = 2048 * time.Millisecond
	s.Run(64 * round) // past the install floods
	// 120 rounds is a common multiple of every §4.3 epoch, so the average
	// covers whole cycles of the workload.
	if got := testing.AllocsPerRun(240, func() { s.Run(round) }); got > budget {
		t.Fatalf("%.0f allocations per round, budget %d", got, budget)
	}
}

// TestAggregationRoundAllocs gates the in-network aggregation path's
// allocations at the full_stack shard shape in steady state: what an 8192 ms
// cycle (four serving rounds, every epoch a whole number of times) allocates
// is what the base station hands upward — per closed collection window the
// mapper's []UserAgg, per user query served in it one []AggResult — and
// nothing from internal/node or internal/radio: samples, partial-state
// buffers, packed messages, relay hops and deliveries are all recycled. The
// GROUP BY query's extra share is the measured groupedMax: in each of its two
// windows per cycle, for each of its two aggregates, core.AggregateStates
// gathers the four buckets in a growing slice and sort.Slice's them, and the
// tuple slice outgrows its one-per-aggregate size.
func TestAggregationRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const groupedMax = 28
	topo, err := topology.PaperGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	// A uniform field: the correlated one allocates a snapshot per instant.
	s, err := New(Config{Topo: topo, Scheme: TTMQO, Seed: 1, DiscardResults: true, Source: field.UniformField{N: topo.Size()}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := s.Post(shardQuery(i)); err != nil {
			t.Fatal(err)
		}
	}
	grouped := query.MustParse("SELECT MAX(temp), AVG(temp) GROUP BY nodeid BUCKET 4 EPOCH DURATION 4096")
	if _, err := s.Post(grouped); err != nil {
		t.Fatal(err)
	}
	const cycle = 8192 * time.Millisecond
	s.Run(16 * cycle) // past the install floods; free lists and scratch at their size
	delivered := 0
	s.Results().OnAggs = func(core.UserAgg) { delivered++ }
	got := testing.AllocsPerRun(30, func() { s.Run(cycle) })
	windows := 0
	for _, inst := range s.installed {
		windows += int(cycle / inst.q.ReportEvery())
	}
	if delivered%31 != 0 {
		t.Fatalf("%d results over 31 cycles: not a whole number per cycle", delivered)
	}
	if want := float64(windows + delivered/31 + groupedMax); got > want {
		t.Errorf("%v allocations per 8192 ms cycle, want <= %v (%d windows closed, %d results delivered, %d for the GROUP BY buckets)",
			got, want, windows, delivered/31, groupedMax)
	}
}
