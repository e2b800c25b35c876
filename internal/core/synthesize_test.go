package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/field"
	"repro/internal/query"
)

func TestSynthesizeEmpty(t *testing.T) {
	if got := Synthesize(nil); len(got.Attrs) != 0 || len(got.Aggs) != 0 {
		t.Fatalf("empty synthesize = %v", got)
	}
}

func TestSynthesizeSingleton(t *testing.T) {
	q := query.MustParse("SELECT light WHERE light > 100 EPOCH DURATION 4096")
	s := Synthesize([]query.Query{q})
	if !s.Equal(q) {
		t.Fatalf("singleton synthesize changed query: %v vs %v", s, q)
	}
	// In particular, the predicate attribute is NOT acquired: the predicate
	// is applied identically in-network.
	if s.HasAttr(field.AttrLight) && len(s.Attrs) != 1 {
		t.Fatalf("attrs = %v", s.Attrs)
	}
}

func TestSynthesizeAllAggregation(t *testing.T) {
	a := query.MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	b := query.MustParse("SELECT MIN(light) WHERE temp > 20 EPOCH DURATION 8192")
	s := Synthesize([]query.Query{a, b})
	if !s.IsAggregation() {
		t.Fatal("all-aggregation set must synthesize to an aggregation query")
	}
	if len(s.Aggs) != 2 || s.Epoch != 4096*time.Millisecond {
		t.Fatalf("synthesized = %v", s)
	}
	if !query.PredsEqual(s.Preds, a.Preds) {
		t.Fatalf("preds changed: %v", s.Preds)
	}
}

// Two aggregation queries merge into one aggregation query that answers
// both.
func TestSynthesizeAggAggCoversBoth(t *testing.T) {
	a := query.MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	b := query.MustParse("SELECT MIN(light) WHERE temp > 20 EPOCH DURATION 8192")
	s := Synthesize([]query.Query{a, b})
	if !s.IsAggregation() || !query.Covers(s, a) || !query.Covers(s, b) {
		t.Fatalf("synthesized = %v, want an aggregation query covering both inputs", s)
	}
}

func TestSynthesizeMixed(t *testing.T) {
	acq := query.MustParse("SELECT light WHERE light > 100 EPOCH DURATION 4096")
	agg := query.MustParse("SELECT MAX(temp) WHERE light > 200 EPOCH DURATION 8192")
	s := Synthesize([]query.Query{acq, agg})
	if s.IsAggregation() {
		t.Fatal("mixed set must synthesize to acquisition")
	}
	// light predicate widened to >100; both queries' predicates differ from
	// the merged one... acq's (100,∞) equals merged, agg's (200,∞) differs →
	// light must be acquired for re-filtering the aggregation query.
	if !s.HasAttr(field.AttrLight) || !s.HasAttr(field.AttrTemp) {
		t.Fatalf("attrs = %v", s.Attrs)
	}
	if s.Epoch != 4096*time.Millisecond {
		t.Fatalf("epoch = %v", s.Epoch)
	}
}

// An acquisition query absorbs an aggregation query: the merge acquires the
// aggregate's input and both sides' predicate attribute, and answers both.
func TestSynthesizeAcqAggCoversBoth(t *testing.T) {
	acq := query.MustParse("SELECT light WHERE light > 100 EPOCH DURATION 4096")
	agg := query.MustParse("SELECT MAX(temp) WHERE light > 200 EPOCH DURATION 8192")
	s := Synthesize([]query.Query{acq, agg})
	if s.IsAggregation() || !s.HasAttr(field.AttrTemp) || !s.HasAttr(field.AttrLight) {
		t.Fatalf("synthesized = %v", s)
	}
	if !query.Covers(s, acq) || !query.Covers(s, agg) {
		t.Fatal("synthesis must cover both inputs")
	}
}

// The §3.1.3 example shape: two acquisition queries merge into one whose
// predicate is the widened range, open bounds kept.
func TestSynthesizeWidensPredicate(t *testing.T) {
	a := query.MustParse("SELECT light WHERE 100 < light AND light < 300 EPOCH DURATION 8192")
	b := query.MustParse("SELECT light WHERE 150 < light AND light < 500 EPOCH DURATION 8192")
	s := Synthesize([]query.Query{a, b})
	if s.IsAggregation() || len(s.Preds) != 1 {
		t.Fatalf("synthesized = %v", s)
	}
	if p := s.Preds[0]; !(p.Min > 100 && p.Min < 100.01) || !(p.Max < 500 && p.Max > 499.99) {
		t.Fatalf("widened pred = %v", p)
	}
	if !query.Covers(s, a) || !query.Covers(s, b) {
		t.Fatal("synthesis must cover both inputs")
	}
}

// An attribute stays constrained only if every query constrains it, with
// the widened range; a union unbounded on both sides is no predicate.
func TestSynthesizeMergedPredicates(t *testing.T) {
	preds := func(a, b []query.Predicate) []query.Predicate {
		acq := func(ps []query.Predicate) query.Query {
			return query.Query{Attrs: []field.Attr{field.AttrHumidity}, Preds: ps, Epoch: query.MinEpoch}.Normalize()
		}
		return Synthesize([]query.Query{acq(a), acq(b)}).Preds
	}
	a := []query.Predicate{{Attr: field.AttrLight, Min: 100, Max: 300}, {Attr: field.AttrTemp, Min: 0, Max: 50}}
	b := []query.Predicate{{Attr: field.AttrLight, Min: 200, Max: 600}}
	if u := preds(a, b); len(u) != 1 || u[0] != (query.Predicate{Attr: field.AttrLight, Min: 100, Max: 600}) {
		t.Fatalf("union = %v", u)
	}
	c := []query.Predicate{{Attr: field.AttrTemp, Min: 0, Max: 50}}
	d := []query.Predicate{{Attr: field.AttrLight, Min: 0, Max: 10}}
	if u := preds(c, d); len(u) != 0 {
		t.Fatalf("disjoint union = %v, want empty", u)
	}
	e := []query.Predicate{{Attr: field.AttrLight, Min: math.Inf(-1), Max: 5}}
	f := []query.Predicate{{Attr: field.AttrLight, Min: 10, Max: math.Inf(1)}}
	if u := preds(e, f); len(u) != 0 {
		t.Fatalf("tautological union = %v, want empty", u)
	}
}

// Windowed queries merge into one windowed query reporting on the GCD of
// their slides.
func TestSynthesizeWindowed(t *testing.T) {
	w1 := query.MustParse("SELECT WINAVG(light, 8, 2) WHERE temp > 20 EPOCH DURATION 4096")
	w2 := query.MustParse("SELECT WINMAX(humidity, 4, 4) WHERE temp > 20 EPOCH DURATION 4096")
	w3 := query.MustParse("SELECT WINAVG(light, 4) WHERE temp > 20 EPOCH DURATION 4096")
	acq := query.MustParse("SELECT light WHERE temp > 20 EPOCH DURATION 4096")
	s := Synthesize([]query.Query{w1, w2})
	if !s.IsWindowed() || len(s.Wins) != 2 {
		t.Fatalf("synthesized = %v", s)
	}
	for _, w := range s.Wins {
		if w.Slide != 2 {
			t.Fatalf("merged slide = %d, want the GCD 2", w.Slide)
		}
	}
	if !query.Covers(s, w1) || !query.Covers(s, w2) {
		t.Fatal("synthesis must cover both (slide decimation)")
	}
	if query.Covers(s, w3) || query.Covers(s, acq) {
		t.Fatal("coverage misfires")
	}
}

// Grouped aggregates merge keeping their grouping; merged into an
// acquisition query, a grouped aggregate has its grouping attribute acquired.
func TestSynthesizeGroupBy(t *testing.T) {
	g1 := query.MustParse("SELECT MAX(light) WHERE temp > 20 GROUP BY nodeid BUCKET 4 EPOCH DURATION 4096")
	g2 := query.MustParse("SELECT MIN(light) WHERE temp > 20 GROUP BY nodeid BUCKET 4 EPOCH DURATION 8192")
	g3 := query.MustParse("SELECT MAX(light) WHERE temp > 20 GROUP BY nodeid BUCKET 8 EPOCH DURATION 4096")
	ungrouped := query.MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")
	merged := Synthesize([]query.Query{g1, g2})
	if !merged.GroupBy.Equal(g1.GroupBy) {
		t.Fatalf("merged group = %+v", merged.GroupBy)
	}
	if !query.Covers(merged, g1) || !query.Covers(merged, g2) {
		t.Fatal("merged must cover both")
	}
	if query.Covers(merged, g3) || query.Covers(merged, ungrouped) {
		t.Fatal("merged must not cover different groupings")
	}
	acqNoGroup := query.MustParse("SELECT light WHERE temp > 20 EPOCH DURATION 4096")
	mixed := Synthesize([]query.Query{acqNoGroup, g1})
	if !mixed.HasAttr(field.AttrNodeID) {
		t.Fatalf("mixed attrs = %v", mixed.Attrs)
	}
	if !query.Covers(mixed, g1) {
		t.Fatal("mixed synthesis must cover the grouped aggregate")
	}
}

func TestSynthesizeIdenticalPredsNotAcquired(t *testing.T) {
	// Two queries with the same predicate on humidity: filtering happens
	// in-network; humidity need not be acquired.
	a := query.MustParse("SELECT light WHERE humidity > 50 EPOCH DURATION 4096")
	b := query.MustParse("SELECT temp WHERE humidity > 50 EPOCH DURATION 4096")
	s := Synthesize([]query.Query{a, b})
	if s.HasAttr(field.AttrHumidity) {
		t.Fatalf("humidity acquired unnecessarily: %v", s.Attrs)
	}
	if _, ok := s.PredFor(field.AttrHumidity); !ok {
		t.Fatal("shared predicate must be retained")
	}
}

func TestSynthesizeDivergentPredsAcquired(t *testing.T) {
	a := query.MustParse("SELECT light WHERE humidity > 50 EPOCH DURATION 4096")
	b := query.MustParse("SELECT temp WHERE humidity > 70 EPOCH DURATION 4096")
	s := Synthesize([]query.Query{a, b})
	if !s.HasAttr(field.AttrHumidity) {
		t.Fatalf("humidity needed for re-filtering: %v", s.Attrs)
	}
	p, ok := s.PredFor(field.AttrHumidity)
	if !ok || p.Min != 50.000000000000007 && !(p.Min > 50 && p.Min < 50.01) {
		t.Fatalf("merged humidity pred = %v", p)
	}
}

func TestSynthesizeOrderIndependent(t *testing.T) {
	qs := []query.Query{
		query.MustParse("SELECT light WHERE light > 100 AND temp > 10 EPOCH DURATION 4096"),
		query.MustParse("SELECT temp WHERE light > 200 EPOCH DURATION 8192"),
		query.MustParse("SELECT MAX(humidity) WHERE light > 50 EPOCH DURATION 16384"),
	}
	s1 := Synthesize([]query.Query{qs[0], qs[1], qs[2]})
	s2 := Synthesize([]query.Query{qs[2], qs[0], qs[1]})
	s3 := Synthesize([]query.Query{qs[1], qs[2], qs[0]})
	if !s1.Equal(s2) || !s1.Equal(s3) {
		t.Fatalf("order dependence:\n%v\n%v\n%v", s1, s2, s3)
	}
}

// Property: Synthesize covers every constituent.
func TestSynthesizeCoversProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 8 {
			seeds = seeds[:8]
		}
		qs := make([]query.Query, 0, len(seeds))
		for _, s := range seeds {
			qs = append(qs, genQueryFromSeed(s, false))
		}
		syn := Synthesize(qs)
		for _, q := range qs {
			if !query.Covers(syn, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: any rewritable pair, acquisition or aggregation, synthesizes
// to a query covering both.
func TestSynthesizeCoversRewritablePairs(t *testing.T) {
	f := func(s1, s2 uint32, agg1, agg2 bool) bool {
		q1, q2 := genQueryFromSeed(s1, agg1), genQueryFromSeed(s2, agg2)
		if !query.Rewritable(q1, q2) {
			return true
		}
		syn := Synthesize([]query.Query{q1, q2})
		return query.Covers(syn, q1) && query.Covers(syn, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the merged predicates admit every row either query admits.
func TestSynthesizeMergedPredicatesSuperset(t *testing.T) {
	f := func(lo1, hi1, lo2, hi2, probe float64, sameAttr bool) bool {
		attr1, attr2 := field.AttrLight, field.AttrLight
		if !sameAttr {
			attr2 = field.AttrTemp
		}
		p1 := []query.Predicate{{Attr: attr1, Min: math.Min(lo1, hi1), Max: math.Max(lo1, hi1)}}
		p2 := []query.Predicate{{Attr: attr2, Min: math.Min(lo2, hi2), Max: math.Max(lo2, hi2)}}
		acq := func(ps []query.Predicate) query.Query {
			return query.Query{Attrs: []field.Attr{field.AttrHumidity}, Preds: ps, Epoch: query.MinEpoch}.Normalize()
		}
		u := Synthesize([]query.Query{acq(p1), acq(p2)}).Preds
		row := field.ValuesOf(map[field.Attr]float64{attr1: probe, attr2: probe})
		if query.MatchAll(p1, &row) || query.MatchAll(p2, &row) {
			return query.MatchAll(u, &row)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: for all-aggregation sets with shared predicates, the synthesis
// stays an aggregation query and covers all.
func TestSynthesizeAggCoversProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 8 {
			seeds = seeds[:8]
		}
		shared := []query.Predicate{{Attr: field.AttrTemp, Min: 10, Max: 60}}
		qs := make([]query.Query, 0, len(seeds))
		for _, s := range seeds {
			q := genQueryFromSeed(s, true)
			q.Preds = shared
			q = q.Normalize()
			qs = append(qs, q)
		}
		syn := Synthesize(qs)
		if !syn.IsAggregation() {
			return false
		}
		for _, q := range qs {
			if !query.Covers(syn, q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// genQueryFromSeed deterministically derives a small valid query from a
// 32-bit seed; used by property tests in this package.
func genQueryFromSeed(seed uint32, agg bool) query.Query {
	attrs := []field.Attr{field.AttrLight, field.AttrTemp, field.AttrHumidity, field.AttrNodeID}
	a := attrs[seed%4]
	pa := attrs[(seed>>2)%4]
	lo := float64((seed >> 4) % 500)
	hi := lo + 1 + float64((seed>>13)%500)
	epoch := time.Duration(1+(seed>>22)%12) * query.MinEpoch
	q := query.Query{
		Preds: []query.Predicate{{Attr: pa, Min: lo, Max: hi}},
		Epoch: epoch,
	}
	if agg {
		ops := []query.AggOp{query.Max, query.Min, query.Sum, query.Count, query.Avg}
		q.Aggs = []query.Agg{{Op: ops[(seed>>9)%5], Attr: a}}
	} else {
		q.Attrs = []field.Attr{a}
	}
	return q.Normalize()
}
