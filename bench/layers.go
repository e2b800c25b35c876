package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/topology"
)

// snapshot is what the traced run reads from the live stack after its
// window and before teardown.
type snapshot struct {
	serve  gateway.Stats
	fed    federation.Stats
	share  share.Stats
	shards []gateway.Stats
	// Tier-1 state summed over the simulations.
	synthetic, users  int
	benefit, userCost float64
	// admitted is shard 0's (or the single gateway's) live user query set:
	// what the layer replays below run against.
	admitted []query.Query
	topo     *topology.Topology
	seed     int64
}

// capture reads the stack; the driver calls it between the last Advance and
// teardown.
func (t *tracer) capture(r *runState) {
	s := &t.snap
	s.seed = r.seed
	s.serve, _, _ = r.st.backend.ServeStats()
	if r.st.router != nil {
		s.fed = r.st.router.FedStats()
		for i := 0; i < r.st.router.Shards(); i++ {
			if st, err := r.st.router.ShardStats(i); err == nil {
				s.shards = append(s.shards, st)
			}
		}
	}
	if r.st.coord != nil {
		s.share = r.st.coord.ShareStats()
	}
	for _, sm := range r.st.sims {
		if o := sm.Optimizer(); o != nil {
			s.synthetic += o.SyntheticCount()
			s.users += o.UserCount()
			s.benefit += o.TotalBenefit()
			s.userCost += o.TotalUserCost()
		}
	}
	s.topo = r.st.sims[0].Topology()
	s.admitted = r.st.sims[0].Optimizer().UserQueries()
}

// timeEach returns the median duration of fn over the items, in
// microseconds, repeating the sweep until at least minSamples calls have
// been timed.
func timeEach(n, minSamples int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var us []float64
	for len(us) < minSamples {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			fn(i)
			us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(us)
}

var parseSink query.Query // keeps the timed calls from being optimized away
var keySink string

// queryLayer times query.Parse and gateway.CanonicalKey over the
// workload's texts.
func queryLayer(ld *load) (parseUS, keyUS float64) {
	texts := ld.texts()
	parsed := make([]query.Query, len(texts))
	parseUS = timeEach(len(texts), 2000, func(i int) {
		parseSink, _ = query.Parse(texts[i])
		parsed[i] = parseSink
	})
	keyUS = timeEach(len(parsed), 2000, func(i int) { keySink = gateway.CanonicalKey(parsed[i]) })
	return parseUS, keyUS
}

// coreLayer replays the admitted query set into fresh optimizers, timing
// the Insert that brings the live set to its full size and the Terminate
// that takes it back down.
func coreLayer(s *snapshot) (insertUS, terminateUS float64) {
	if len(s.admitted) == 0 {
		return 0, 0
	}
	var ins, term []float64
	for len(ins) < 200 {
		model, err := cost.NewModel(s.topo.LevelSizes(), cost.Config{})
		if err != nil {
			return 0, 0
		}
		o := core.NewOptimizer(model, core.Options{})
		for i, q := range s.admitted {
			q.ID = query.ID(i + 1)
			t0 := time.Now()
			_, err := o.Insert(q)
			d := time.Since(t0)
			if err == nil && i >= len(s.admitted)/2 { // at or near the live-set size
				ins = append(ins, float64(d)/float64(time.Microsecond))
			}
		}
		for i := len(s.admitted) - 1; i >= len(s.admitted)/2; i-- {
			t0 := time.Now()
			_, _ = o.Terminate(query.ID(i + 1))
			term = append(term, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	return median(ins), median(term)
}

// bareSim builds a simulation outside any serving tier carrying the
// admitted query set.
func bareSim(s *snapshot, scheme network.Scheme) (*network.Simulation, error) {
	sm, err := network.New(network.Config{Topo: s.topo, Scheme: scheme, Seed: s.seed, DiscardResults: true})
	if err != nil {
		return nil, err
	}
	for _, q := range s.admitted {
		q.ID = 0
		if _, err := sm.Post(q); err != nil {
			return nil, err
		}
	}
	return sm, nil
}

type networkLayer struct {
	roundMS, eventsPerRound, eventsPerS, allocsPerRound, airtimeSavingsPct float64
}

// networkRounds is how many quanta the bare simulation is timed over (a
// traced run shorter than this times as many as it ran itself).
const networkRounds = 600

// measureNetwork times Simulation.Run(quantum) over `rounds` quanta on a
// bare simulation carrying one shard's admitted query set, and compares
// TTMQO's airtime against the unoptimized baseline over 20 virtual minutes
// of the same queries (Figure 3's quantity on this workload).
func measureNetwork(s *snapshot, rounds int) (networkLayer, error) {
	var nl networkLayer
	sm, err := bareSim(s, network.TTMQO)
	if err != nil {
		return nl, err
	}
	sm.Run(64 * quantum) // past the install floods
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fired0 := sm.Engine().Fired()
	roundMS := make([]float64, 0, rounds)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		sm.Run(quantum)
		roundMS = append(roundMS, ms(time.Since(t0)))
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	fired := float64(sm.Engine().Fired() - fired0)
	nl.roundMS = median(roundMS)
	nl.eventsPerRound = fired / float64(rounds)
	nl.eventsPerS = fired / wall
	nl.allocsPerRound = float64(m1.Mallocs-m0.Mallocs) / float64(rounds)

	const study = 20 * time.Minute
	airtime := func(scheme network.Scheme) (float64, error) {
		b, err := bareSim(s, scheme)
		if err != nil {
			return 0, err
		}
		b.Run(study)
		return b.Metrics().TotalTxTime().Seconds(), nil
	}
	base, err := airtime(network.Baseline)
	if err != nil {
		return nl, err
	}
	opt, err := airtime(network.TTMQO)
	if err != nil {
		return nl, err
	}
	nl.airtimeSavingsPct = 100 * metrics.Savings(base, opt)
	return nl, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric from the traced run.
// untracedRate is the round rate of the untraced slice run beside it.
func layerMetrics(r *runState, t *tracer, untracedRate float64) (map[string]float64, error) {
	res := &r.res
	s := &t.snap
	m := make(map[string]float64, len(perLayer))

	m["query.parse_us"], m["gateway.canonical_key_us"] = queryLayer(&r.ld)
	m["core.insert_us"], m["core.terminate_us"] = coreLayer(s)
	m["core.synthetic_per_user"] = ratio(float64(s.synthetic), float64(s.users))
	m["core.predicted_saving_pct"] = 100 * ratio(s.benefit, s.userCost)

	nl, err := measureNetwork(s, min(networkRounds, res.rounds))
	if err != nil {
		return nil, err
	}
	m["network.round_ms"] = nl.roundMS
	m["network.events_per_round"] = nl.eventsPerRound
	m["network.events_per_s"] = nl.eventsPerS
	m["network.allocs_per_round"] = nl.allocsPerRound
	m["network.airtime_savings_pct"] = nl.airtimeSavingsPct
	m["radio.msgs"] = float64(res.radio.msgs)
	m["radio.retransmissions"] = float64(res.radio.retrans)
	m["radio.airtime_ms"] = ms(res.radio.airtime)
	m["radio.bytes"] = float64(res.radio.bytes)

	m["gateway.subscribe_commit_ms_p50"] = percentile(t.commitMS, 50)
	m["gateway.delivery_lag_ms_p50"] = percentile(t.lag.ms, 50)
	m["gateway.delivery_lag_ms_p95"] = percentile(t.lag.ms, 95)
	var inAdvance float64
	for _, v := range t.advanceMS {
		inAdvance += v
	}
	m["gateway.advance_share"] = ratio(inAdvance/1000, res.wallS)
	m["gateway.stall_share"] = ratio(res.stallS, res.wallS)
	m["gateway.dedup_ratio"] = s.serve.DedupRatio()
	m["gateway.dropped"] = float64(s.serve.Dropped)
	m["gateway.evicted"] = float64(s.serve.Evicted)
	m["gateway.ttfr_virtual_ms_p50"] = percentile(res.ttfrVirtMS, 50)

	if r.spec.stack == stackGateway {
		m["gateway.advance_ms_p50"] = percentile(t.advanceMS, 50)
		m["gateway.advance_ms_p95"] = percentile(t.advanceMS, 95)
		m["gateway.advance_self_ms"] = m["gateway.advance_ms_p50"] - nl.roundMS
	} else {
		m["federation.advance_ms_p50"] = percentile(t.fedAdvanceMS, 50)
		m["federation.merge_latency_us"] = percentile(t.mergeUS, 50)
		m["federation.partials_per_merged_epoch"] = ratio(float64(s.fed.PartialUpdates), float64(s.fed.MergedEpochs))
		var lo, hi int64
		for i, st := range s.shards {
			if i == 0 || st.Epochs < lo {
				lo = st.Epochs
			}
			if st.Epochs > hi {
				hi = st.Epochs
			}
		}
		m["federation.shard_skew"] = ratio(float64(hi), float64(lo))
		m["federation.subscribe_us"] = percentile(t.fedSubUS, 50)
		m["share.advance_self_ms_p50"] = percentile(t.shareSelfMS, 50)
		m["share.fragment_reuse_ratio"] = s.share.FragmentReuseRatio()
		m["share.cache_hit_ratio"] = s.share.CacheHitRatio()
		m["share.upstream_admits_per_subscribe"] = ratio(float64(s.share.FragmentsCreated), float64(s.share.Subscribes))
	}
	m["share.ack_rounds_p50"] = percentile(res.ackRounds, 50)
	m["share.ttfr_rounds_p50"] = percentile(res.ttfrRounds, 50)

	m["bench.round_ms"] = 1000 * ratio(res.wallS, float64(res.rounds))
	m["bench.trace_overhead_pct"] = 100 * (ratio(untracedRate, res.roundRate) - 1)
	m["bench.host_speed"] = res.hostSpeed

	// A metric that does not apply to this workload's stack reads 0.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m, nil
}
