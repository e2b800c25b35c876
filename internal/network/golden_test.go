package network

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/topology"
	"repro/internal/workload"
)

// goldenRun executes the pinned scenario under one scheme and returns a
// one-line digest of everything the simulator is contracted to reproduce
// bit for bit: every delivered (query, epoch, values) in delivery order,
// per-kind message counts, retransmissions, bytes, total airtime, and the
// number of events fired.
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

	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	s.Results().OnRows = func(ur core.UserRows) {
		put(uint64(ur.QueryID), uint64(ur.Time), uint64(len(ur.Rows)))
		for _, r := range ur.Rows {
			put(uint64(r.Node), uint64(r.Time), uint64(r.Values.Len()))
			r.Values.Each(func(a field.Attr, v float64) {
				put(uint64(a), math.Float64bits(v))
			})
		}
	}
	s.Results().OnAggs = func(ua core.UserAgg) {
		put(uint64(ua.QueryID), uint64(ua.Time), uint64(len(ua.Results)))
		for _, r := range ua.Results {
			empty := uint64(0)
			if r.Empty {
				empty = 1
			}
			put(uint64(r.Time), uint64(r.Agg.Op), uint64(r.Agg.Attr), uint64(r.Group), math.Float64bits(r.Value), empty)
		}
	}

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
	return fmt.Sprintf("results=%016x result=%d query=%d abort=%d beacon=%d wake=%d retrans=%d bytes=%d txtime=%d failures=%d fired=%d",
		h.Sum64(),
		m.MessagesOf("result"), m.MessagesOf("query"), m.MessagesOf("abort"),
		m.MessagesOf("beacon"), m.MessagesOf("wake"),
		m.Retransmissions(), m.Bytes(), int64(m.TotalTxTime()), s.Failures(), s.Engine().Fired())
}

// TestSimulationGolden pins the simulator's output bit for bit (DESIGN.md §5
// invariant 6, made absolute): the digests below were computed before the
// simulator core was flattened, so any change to event order, RNG draw
// order, float summation order or on-air sizes shows up here, in tier-1,
// not only in the end-to-end benchmark's fingerprint.
func TestSimulationGolden(t *testing.T) {
	golden := map[Scheme]string{
		Baseline:      "results=9eb3dd90ff04873a result=63601 query=6482 abort=1610 beacon=1024 wake=0 retrans=12921 bytes=1197041 txtime=394418528000 failures=29 fired=226034",
		BSOnly:        "results=bcf9ed511f8d8a37 result=52055 query=5908 abort=3646 beacon=1029 wake=0 retrans=15673 bytes=1002265 txtime=333747120000 failures=29 fired=147163",
		InNetworkOnly: "results=d286c73f567ce9ac result=60145 query=6430 abort=1537 beacon=1024 wake=19 retrans=16951 bytes=1146584 txtime=376799472000 failures=29 fired=162188",
		TTMQO:         "results=4652c8751bc18e28 result=50047 query=5939 abort=3714 beacon=1010 wake=20 retrans=15033 bytes=974306 txtime=324115648000 failures=29 fired=143342",
	}
	for _, scheme := range AllSchemes() {
		if got := goldenRun(t, scheme); got != golden[scheme] {
			t.Errorf("%v digest changed:\n got %s\nwant %s", scheme, got, golden[scheme])
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
