package chaos

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/tier"
)

// The serving studies' cells are drills on the one round loop: every row
// they report comes out of the StreamChecker and the goroutine-leak check.

// ---------------------------------------------------------------------------
// share study

// The share study's world and schedule. Cold subscribers join one per round,
// so their TTFR samples cover the epoch's phase space; shareWarm rounds later
// (three epochs, enough to fill the result window) the late joiners
// re-subscribe the first cold queries, also one per round, and shareMeasured
// rounds follow. The gap between shareQuantum and shareEpochMS is what a warm
// cache erases from a late subscriber's TTFR.
const (
	shareSide     = 7 // 48 sensors
	shareCold     = 12
	shareWarm     = 24
	shareLate     = 8
	shareMeasured = 24
	shareQuantum  = 1024 * time.Millisecond
	shareEpochMS  = 8192
)

// ShareCell runs one cell of the cross-query sharing study: a PaperGrid
// gateway, straight or under the sharing coordinator, serving cold then late
// subscribers of region aggregates whose width grows with overlap in [0,1].
// The report adds the injected tier-1 messages and the cold and late TTFR
// percentiles; Gateway.Admitted is the distinct queries the network ran.
func ShareCell(seed int64, overlap float64, sharing bool) (*Report, error) {
	return shareStudy(overlap, sharing).run(Config{Seed: seed, Rounds: shareCold + shareWarm + shareLate + shareMeasured})
}

// ttfrSample is one study subscriber's subscribe instant and, once seen,
// its first delivery's.
type ttfrSample struct {
	subAt, firstAt sim.Time
	seen           bool
}

func shareStudy(overlap float64, sharing bool) *drill {
	round := 0 // the rounds staged so far
	var cold, late []*ttfrSample
	samples := make(map[*stream]*ttfrSample)
	return &drill{
		name: "share-study", side: shareSide, quantum: shareQuantum,
		spec: func(r *run) (stack.Spec, error) {
			cfg, err := r.gatewayConfig()
			return stack.Spec{Share: sharing, Gateway: cfg, Coord: share.Config{Cell: share.DefaultCell}}, err
		},
		pool: func(r *run) []query.Query { return shareQuerySet(r.cfg.Seed, overlap, r.st.Sensors()) },
		// Cold subscriber i joins on query i at round i; late joiner j on
		// query j at round shareCold+shareWarm+j.
		stage: func(r *run, pool []query.Query) error {
			var pop *[]*ttfrSample
			switch {
			case round < shareCold:
				pop = &cold
			case round >= shareCold+shareWarm && len(late) < shareLate:
				pop = &late
			}
			at := sim.Time(round) * shareQuantum
			round++
			if pop == nil {
				return nil
			}
			s, err := r.join(fmt.Sprintf("chaos-%02d", len(r.clients)), pool[len(*pop)])
			if err != nil {
				return err
			}
			samples[s] = &ttfrSample{subAt: at}
			*pop = append(*pop, samples[s])
			return nil
		},
		// A delivery drained in the round staged last arrived by that round's
		// end.
		observe: func(_ *run, s *stream, _ tier.Update) {
			if smp := samples[s]; !smp.seen {
				smp.seen, smp.firstAt = true, sim.Time(round)*shareQuantum
			}
		},
		check: func(r *run) {
			r.rep.Clients, r.rep.Messages = len(r.clients), int64(r.st.Gateway().FinalMetrics().Messages)
			r.rep.ColdTTFR50MS, r.rep.ColdTTFR95MS = ttfrPercentiles(cold)
			r.rep.LateTTFR50MS, r.rep.LateTTFR95MS = ttfrPercentiles(late)
		},
	}
}

// shareQuerySet builds the cell-aligned subscriber regions for one
// overlap factor. Every query spans whole cells, so the decomposition is
// residual-free and the comparison isolates cross-query sharing: at f=0
// each query is one cell (fragments and queries coincide), while rising f
// draws wider multi-cell regions over the same space — many distinct
// query forms whose cells coincide, which exact dedup cannot collapse but
// fragment CSE can.
func shareQuerySet(seed int64, overlap float64, sensors int) []query.Query {
	cells := sensors / share.DefaultCell
	maxW := 1 + int(math.Round(overlap*3))
	if maxW > cells {
		maxW = cells
	}
	rng := sim.NewRand(seed).Fork(int64(math.Round(overlap * 100)))
	qs := make([]query.Query, 0, shareCold)
	for i := 0; i < shareCold; i++ {
		w := 1 + rng.Intn(maxW)
		s := rng.Intn(cells - w + 1)
		lo, hi := 1+s*share.DefaultCell, (s+w)*share.DefaultCell
		qs = append(qs, query.MustParse(fmt.Sprintf(
			"SELECT SUM(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %d",
			lo, hi, shareEpochMS)))
	}
	return qs
}

// ttfrPercentiles summarizes subscribe→first-result gaps in virtual ms,
// picking by nearest rank.
func ttfrPercentiles(subs []*ttfrSample) (p50, p95 float64) {
	var ms []float64
	for _, s := range subs {
		if s.seen {
			ms = append(ms, float64((s.firstAt-s.subAt)/time.Millisecond))
		}
	}
	if len(ms) == 0 {
		return 0, 0
	}
	sort.Float64s(ms)
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		return ms[i]
	}
	return pick(0.50), pick(0.95)
}

// ---------------------------------------------------------------------------
// federation study

// The federation study holds each shard's world (a fedStudySide grid) and its
// subscriber load constant across fleet sizes. It runs the round that commits
// the subscriptions and then fedStudyMeasured rounds.
const (
	fedStudySide         = 3 // 8 sensors per shard
	fedStudySubsPerShard = 4
	fedStudyMeasured     = 8
)

// FederationCell runs one cell of the federation scaling study: shards
// region shards behind the router, with four sessions per shard, each
// subscribing its shard's full-region acquisition (deduped to one canonical
// upstream per shard) and a cross-shard recombining aggregate. The report
// adds the stack's sensor count.
func FederationCell(seed int64, shards int) (*Report, error) {
	return fedStudy(shards).run(Config{Seed: seed, Rounds: 1 + fedStudyMeasured})
}

func fedStudy(shards int) *drill {
	return &drill{
		name: "federation-study", side: fedStudySide, clients: fedStudySubsPerShard * shards,
		spec: func(r *run) (stack.Spec, error) {
			spec, err := routerSpec(r)
			spec.Shards = shards
			return spec, err
		},
		// [region_0, agg, region_1, agg, …]: client c holds region c mod
		// shards and the aggregate.
		pool: func(r *run) []query.Query {
			spn, epoch := r.st.Sensors()/shards, defaultQuantum.Milliseconds()
			agg := query.MustParse(fmt.Sprintf("SELECT MAX(light), AVG(light) EPOCH DURATION %d", epoch))
			pool := make([]query.Query, 0, 2*shards)
			for i := 0; i < shards; i++ {
				pool = append(pool, query.MustParse(fmt.Sprintf(
					"SELECT nodeid, light WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %d",
					i*spn+1, (i+1)*spn, epoch)), agg)
			}
			return pool
		},
		perClient: 2,
		check:     func(r *run) { r.rep.Sensors = r.st.Sensors() },
	}
}
