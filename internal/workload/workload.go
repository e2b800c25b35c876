// Package workload generates the query workloads of the paper's evaluation
// (§4): the three static workloads of Figure 3, the §4.3 random adaptive
// workload of Figure 4, and the selectivity-controlled mixes of Figure 5.
package workload

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

// TimedQuery is one workload entry: a query, when it arrives, and when the
// user terminates it (Depart == 0 means it runs until the end).
type TimedQuery struct {
	Query  query.Query
	Arrive time.Duration
	Depart time.Duration
}

// Departs reports whether the query, admitted at admit, is still running
// when it departs: false when it has no Depart, or when its LIFETIME clause
// has ended it by then.
func (w TimedQuery) Departs(admit time.Duration) bool {
	return w.Depart != 0 && (w.Query.Lifetime == 0 || admit+w.Query.Lifetime > w.Depart)
}

// Epochs allowed by §4.3: 8192 ms to 24576 ms, all divisible by 4096 ms.
// (The paper prints "8092ms", which is not divisible by 4096; see DESIGN.md.)
var Epochs = []time.Duration{
	8192 * time.Millisecond,
	12288 * time.Millisecond,
	16384 * time.Millisecond,
	20480 * time.Millisecond,
	24576 * time.Millisecond,
}

func mustQuery(id query.ID, s string) query.Query {
	q := query.MustParse(s)
	q.ID = id
	return q
}

// A is WORKLOAD_A of §4.2: heavily overlapping acquisition queries over
// light with pairwise-divisible epoch durations — the common savings both
// the base-station tier and the in-network tier can capture, each in its own
// way (tier 1 merges them into one synthetic query; tier 2 shares their
// sampling and messages directly).
func A() []TimedQuery {
	qs := []query.Query{
		mustQuery(1, "SELECT light WHERE light >= 100 AND light <= 600 EPOCH DURATION 4096"),
		mustQuery(2, "SELECT light WHERE light >= 150 AND light <= 650 EPOCH DURATION 8192"),
		mustQuery(3, "SELECT light, temp WHERE light >= 100 AND light <= 700 EPOCH DURATION 4096"),
		mustQuery(4, "SELECT light WHERE light >= 50 AND light <= 600 EPOCH DURATION 16384"),
		mustQuery(5, "SELECT light WHERE light >= 120 AND light <= 640 EPOCH DURATION 8192"),
		mustQuery(6, "SELECT light WHERE light >= 80 AND light <= 620 EPOCH DURATION 4096"),
		mustQuery(7, "SELECT light, temp WHERE light >= 90 AND light <= 660 EPOCH DURATION 8192"),
		mustQuery(8, "SELECT light WHERE light >= 110 AND light <= 630 EPOCH DURATION 4096"),
	}
	return static(qs)
}

// B is WORKLOAD_B of §4.2: queries the base-station tier cannot merge —
// aggregation queries with pairwise different predicates (the §3.1.2
// semantic-correctness constraint forbids rewriting) and acquisition pairs
// whose epoch durations do not divide (merging at the GCD would oversample).
// Only the in-network tier can share their firings, routes and partial
// aggregates.
func B() []TimedQuery {
	qs := []query.Query{
		mustQuery(1, "SELECT MAX(light) WHERE temp >= 10 AND temp <= 60 EPOCH DURATION 8192"),
		mustQuery(2, "SELECT MAX(light) WHERE temp >= 20 AND temp <= 70 EPOCH DURATION 8192"),
		mustQuery(3, "SELECT MAX(light) WHERE temp >= 30 AND temp <= 80 EPOCH DURATION 12288"),
		mustQuery(4, "SELECT MIN(light) WHERE temp >= 15 AND temp <= 65 EPOCH DURATION 8192"),
		mustQuery(5, "SELECT light WHERE light >= 100 AND light <= 500 EPOCH DURATION 8192"),
		mustQuery(6, "SELECT light WHERE light >= 110 AND light <= 520 EPOCH DURATION 12288"),
	}
	return static(qs)
}

// C is WORKLOAD_C of §4.2: a mix exercising the mutual complementarity of
// the two tiers — mergeable acquisitions, an aggregation query derivable
// from an acquisition (tier 1 suppresses it entirely), plus unmergeable
// aggregations and epoch mismatches that only tier 2 can share.
func C() []TimedQuery {
	qs := []query.Query{
		// A mergeable acquisition cluster (tier 1 collapses q1–q3 into one
		// synthetic query).
		mustQuery(1, "SELECT light, temp WHERE light >= 100 AND light <= 700 EPOCH DURATION 4096"),
		mustQuery(2, "SELECT light WHERE light >= 150 AND light <= 600 EPOCH DURATION 8192"),
		mustQuery(3, "SELECT temp WHERE light >= 300 AND light <= 600 EPOCH DURATION 8192"),
		// Aggregations derivable from the acquisition cluster: tier 1
		// suppresses them from the network entirely.
		mustQuery(4, "SELECT MAX(light) WHERE light >= 100 AND light <= 700 EPOCH DURATION 8192"),
		mustQuery(5, "SELECT MIN(light) WHERE light >= 150 AND light <= 650 EPOCH DURATION 8192"),
		// Same-predicate aggregations (tier 1 merges them)...
		mustQuery(6, "SELECT MAX(temp) WHERE temp >= 20 AND temp <= 80 EPOCH DURATION 8192"),
		mustQuery(7, "SELECT MIN(temp) WHERE temp >= 20 AND temp <= 80 EPOCH DURATION 8192"),
		// ...and tier-1-unmergeable aggregations: pairwise different
		// moderate-selectivity predicates and mixed epochs. Tier 1 cannot
		// touch them (§3.1.2 semantic constraint); tier 2 optimizes them
		// with query-aware routing and sleep, and its advantage grows with
		// network size — which is what flips the BS/IN ranking between 16
		// and 64 nodes in the paper's Figure 3.
		mustQuery(8, "SELECT MAX(temp) WHERE temp >= 30 AND temp <= 65 EPOCH DURATION 12288"),
		mustQuery(9, "SELECT MAX(temp) WHERE temp >= 35 AND temp <= 70 EPOCH DURATION 8192"),
		mustQuery(10, "SELECT MIN(temp) WHERE temp >= 40 AND temp <= 75 EPOCH DURATION 12288"),
		mustQuery(11, "SELECT MAX(light) WHERE light >= 300 AND light <= 650 EPOCH DURATION 8192"),
		mustQuery(12, "SELECT MIN(light) WHERE light >= 350 AND light <= 700 EPOCH DURATION 12288"),
		mustQuery(13, "SELECT MAX(humidity) WHERE humidity >= 30 AND humidity <= 65 EPOCH DURATION 8192"),
	}
	return static(qs)
}

// ByName returns a Figure 3 workload by its letter.
func ByName(name string) ([]TimedQuery, error) {
	switch name {
	case "A", "a":
		return A(), nil
	case "B", "b":
		return B(), nil
	case "C", "c":
		return C(), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}

func static(qs []query.Query) []TimedQuery {
	out := make([]TimedQuery, 0, len(qs))
	for _, q := range qs {
		out = append(out, TimedQuery{Query: q})
	}
	return out
}

// RandomConfig parametrizes the §4.3 adaptive workload.
type RandomConfig struct {
	Seed int64
	// NumQueries is the number of user queries in the run (the paper uses
	// 500).
	NumQueries int
	// MeanInterarrival is the average arrival spacing (paper: 40 s).
	MeanInterarrival time.Duration
	// TargetConcurrency sets the average number of simultaneously running
	// queries; mean duration = TargetConcurrency × MeanInterarrival.
	TargetConcurrency int
	// AggFraction is the probability a query is an aggregation query
	// (default 0.5).
	AggFraction float64
}

// Random generates the §4.3 workload: queries randomly select attributes
// (nodeid, light, temp), aggregations (MAX, MIN), predicates and epoch
// durations, arriving with exponential spacing and departing after an
// exponential duration.
func Random(cfg RandomConfig) []TimedQuery {
	if cfg.NumQueries == 0 {
		cfg.NumQueries = 500
	}
	if cfg.MeanInterarrival == 0 {
		cfg.MeanInterarrival = 40 * time.Second
	}
	if cfg.TargetConcurrency == 0 {
		cfg.TargetConcurrency = 8
	}
	if cfg.AggFraction == 0 {
		cfg.AggFraction = 0.5
	}
	rng := sim.NewRand(cfg.Seed)
	attrs := []field.Attr{field.AttrNodeID, field.AttrLight, field.AttrTemp}
	meanDur := cfg.MeanInterarrival * time.Duration(cfg.TargetConcurrency)

	// User interest is not uniform: most monitoring queries in a deployment
	// watch the same few phenomena (the paper notes real workloads are even
	// more similar than this model, §4.3). Predicate attributes and epochs
	// are therefore drawn with a bias toward the common choices.
	predAttr := func() field.Attr {
		r := rng.Float64()
		switch {
		case r < 0.6:
			return field.AttrLight
		case r < 0.9:
			return field.AttrTemp
		default:
			return field.AttrNodeID
		}
	}
	epoch := func() time.Duration {
		r := rng.Float64()
		switch {
		case r < 0.4:
			return Epochs[0]
		case r < 0.7:
			return Epochs[1]
		case r < 0.85:
			return Epochs[2]
		case r < 0.95:
			return Epochs[3]
		default:
			return Epochs[4]
		}
	}

	out := make([]TimedQuery, 0, cfg.NumQueries)
	var t time.Duration
	for i := 0; i < cfg.NumQueries; i++ {
		t += time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
		dur := time.Duration(rng.ExpFloat64() * float64(meanDur))
		if dur < query.MinEpoch {
			dur = query.MinEpoch
		}

		q := query.Query{
			ID:    query.ID(i + 1),
			Epoch: epoch(),
		}
		q.Preds = []query.Predicate{randRange(rng, predAttr(), 0.3+0.6*rng.Float64(), 64)}
		if rng.Float64() < cfg.AggFraction {
			ops := []query.AggOp{query.Max, query.Min}
			q.Aggs = []query.Agg{{Op: ops[rng.Intn(2)], Attr: attrs[1+rng.Intn(2)]}}
		} else {
			// Acquisition: a random non-empty subset of the attributes.
			n := 1 + rng.Intn(len(attrs))
			perm := rng.Perm(len(attrs))
			for _, idx := range perm[:n] {
				q.Attrs = append(q.Attrs, attrs[idx])
			}
		}
		out = append(out, TimedQuery{
			Query:  q.Normalize(),
			Arrive: t,
			Depart: t + dur,
		})
	}
	return out
}

// randRange builds a predicate on attr covering the given fraction of its
// value range, at a random position.
func randRange(rng *sim.Rand, attr field.Attr, coverage float64, nodes int) query.Predicate {
	lo, hi := attr.Range(nodes)
	span := hi - lo
	width := span * coverage
	start := lo + (span-width)*rng.Float64()
	return query.Predicate{Attr: attr, Min: start, Max: start + width}
}

// SelectivityConfig parametrizes the Figure 5 workload.
type SelectivityConfig struct {
	Seed int64
	// NumQueries is the number of concurrent queries (paper: 8).
	NumQueries int
	// AggFraction is the share of aggregation queries: 0, 0.5 or 1 in the
	// paper's three series.
	AggFraction float64
	// Selectivity is the range coverage of each query's single predicate
	// (the paper sweeps 0.2 … 1.0).
	Selectivity float64
	// Nodes sizes the nodeid attribute range.
	Nodes int
	// SameEpoch gives every query the same epoch duration (the paper's
	// acquisition series: "8 data acquisition queries with the same epoch
	// duration"); otherwise epochs are drawn from Epochs.
	SameEpoch bool
}

// Selectivity generates the Figure 5 workload: data acquisition queries
// retrieve all attributes; aggregation queries request MAX(light); each
// query has one predicate on a random attribute of (nodeid, light, temp)
// with the configured range coverage. Selectivity 1 yields the full range —
// semantically the same rows, and (crucially for the 100 %-aggregation
// series) identical predicates across queries.
func Selectivity(cfg SelectivityConfig) []TimedQuery {
	if cfg.NumQueries == 0 {
		cfg.NumQueries = 8
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 16
	}
	rng := sim.NewRand(cfg.Seed)
	attrs := []field.Attr{field.AttrNodeID, field.AttrLight, field.AttrTemp}
	nAgg := int(float64(cfg.NumQueries)*cfg.AggFraction + 0.5)

	out := make([]TimedQuery, 0, cfg.NumQueries)
	for i := 0; i < cfg.NumQueries; i++ {
		epoch := Epochs[rng.Intn(len(Epochs))]
		if cfg.SameEpoch {
			epoch = Epochs[0]
		}
		q := query.Query{ID: query.ID(i + 1), Epoch: epoch}
		pa := attrs[rng.Intn(len(attrs))]
		if cfg.Selectivity < 1 {
			q.Preds = []query.Predicate{randRange(rng, pa, cfg.Selectivity, cfg.Nodes)}
		}
		// Selectivity 1 means the predicate admits everything; we emit no
		// predicate at all — semantically identical and, crucially for the
		// 100%-aggregation series, *equal* across queries, which is what
		// lets tier 1 suddenly merge them (the Figure 5 jump).
		if i < nAgg {
			q.Aggs = []query.Agg{{Op: query.Max, Attr: field.AttrLight}}
		} else {
			q.Attrs = []field.Attr{field.AttrNodeID, field.AttrLight, field.AttrTemp}
		}
		out = append(out, TimedQuery{Query: q.Normalize()})
	}
	return out
}

// Validate checks a workload for well-formedness: unique IDs, valid
// queries, ordered lifetimes.
func Validate(ws []TimedQuery) error {
	seen := make(map[query.ID]bool, len(ws))
	for i, w := range ws {
		if err := w.Query.Validate(); err != nil {
			return fmt.Errorf("workload[%d]: %w", i, err)
		}
		if seen[w.Query.ID] {
			return fmt.Errorf("workload[%d]: duplicate ID %d", i, w.Query.ID)
		}
		seen[w.Query.ID] = true
		if w.Depart != 0 && w.Depart <= w.Arrive {
			return fmt.Errorf("workload[%d]: departs (%v) before arriving (%v)", i, w.Depart, w.Arrive)
		}
	}
	return nil
}
