package query

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/field"
)

// refNormalize is Normalize as it stood before a canonical list was returned
// as it is: every list rebuilt through a map and a reflection sort. It is the
// oracle of the fast path.
func refNormalize(q Query) Query {
	out := q
	out.Attrs, out.Aggs, out.Wins = refDedup(q.Attrs, func(a, b field.Attr) bool { return a < b }),
		refDedup(q.Aggs, func(a, b Agg) bool { return a.Attr < b.Attr || a.Attr == b.Attr && a.Op < b.Op }),
		refDedup(q.Wins, winLess)
	out.Preds = nil
	byAttr := make(map[field.Attr]Predicate, len(q.Preds))
	for _, p := range q.Preds {
		if cur, ok := byAttr[p.Attr]; ok {
			p = Predicate{Attr: p.Attr, Min: math.Max(cur.Min, p.Min), Max: math.Min(cur.Max, p.Max)}
		}
		byAttr[p.Attr] = p
	}
	for _, p := range byAttr {
		if !(math.IsInf(p.Min, -1) && math.IsInf(p.Max, 1)) {
			out.Preds = append(out.Preds, p)
		}
	}
	sort.Slice(out.Preds, func(i, j int) bool { return out.Preds[i].Attr < out.Preds[j].Attr })
	return out
}

func refDedup[T comparable](xs []T, less func(a, b T) bool) []T {
	var out []T
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// sameLists is field-by-field identity of two queries; a nil list equals an
// empty one.
func sameLists(a, b Query) bool {
	return slices.Equal(a.Attrs, b.Attrs) && slices.Equal(a.Aggs, b.Aggs) &&
		slices.Equal(a.Wins, b.Wins) && slices.Equal(a.Preds, b.Preds)
}

// queryFromBytes spends data on the four lists of a query, two bytes an
// entry: unsorted, with duplicates, with several predicates on one attribute
// (overlapping, disjoint, unbounded on one side or on both).
func queryFromBytes(data []byte) Query {
	q := Query{ID: 7, Epoch: MinEpoch, Lifetime: time.Hour}
	bound := func(b byte, inf float64) float64 {
		if b%5 == 0 {
			return inf
		}
		return float64(b % 16)
	}
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		attr := field.Attr(1 + a>>2%5)
		switch a % 4 {
		case 0:
			q.Attrs = append(q.Attrs, attr)
		case 1:
			q.Aggs = append(q.Aggs, Agg{Op: AggOp(1 + b%5), Attr: attr})
		case 2:
			q.Wins = append(q.Wins, Win{Op: AggOp(1 + b%2), Attr: attr, Window: 1 + int(b>>1%3), Slide: 1 + int(b>>3%2)})
		case 3:
			q.Preds = append(q.Preds, Predicate{Attr: attr, Min: bound(b, math.Inf(-1)), Max: bound(b>>4, math.Inf(1))})
		}
	}
	return q
}

// checkNormalize holds Normalize to the reference on q, and to itself: it is
// idempotent — the second pass hands the first's lists back uncopied — leaves
// its receiver alone, and renders one canonical text (what the serving tiers'
// CanonicalKey is made of) however the lists were ordered.
func checkNormalize(t testing.TB, q Query) {
	t.Helper()
	before := q.Clone()
	n, want := q.Normalize(), refNormalize(q)
	if !sameLists(n, want) {
		t.Fatalf("Normalize(%+v)\n got  %+v\n want %+v", q, n, want)
	}
	if !sameLists(q, before) {
		t.Fatalf("Normalize wrote through its receiver: %+v, was %+v", q, before)
	}
	again := n.Normalize()
	if !sameLists(again, n) {
		t.Fatalf("not idempotent: %+v then %+v", n, again)
	}
	for _, shared := range []bool{
		len(n.Attrs) == 0 || &again.Attrs[0] == &n.Attrs[0], len(n.Aggs) == 0 || &again.Aggs[0] == &n.Aggs[0],
		len(n.Wins) == 0 || &again.Wins[0] == &n.Wins[0], len(n.Preds) == 0 || &again.Preds[0] == &n.Preds[0],
	} {
		if !shared {
			t.Fatalf("a canonical list was copied: %+v", n)
		}
	}
	if !n.Equal(q) || !q.Equal(n) {
		t.Fatalf("%+v is not Equal to its normal form %+v", q, n)
	}
	rev := q.Clone()
	slices.Reverse(rev.Attrs)
	slices.Reverse(rev.Aggs)
	slices.Reverse(rev.Wins)
	slices.Reverse(rev.Preds)
	if got, want := rev.Normalize().String(), n.String(); got != want {
		t.Fatalf("canonical text depends on list order:\n %s\n %s", got, want)
	}
}

// TestNormalizeMatchesReference is the quick-check of the fast path against
// the map-and-sort reference on arbitrary lists.
func TestNormalizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		data := make([]byte, 2*rng.Intn(12))
		rng.Read(data)
		checkNormalize(t, queryFromBytes(data))
	}
	for _, text := range allocTexts {
		checkNormalize(t, MustParse(text))
	}
}

// FuzzNormalize mutates the lists.
func FuzzNormalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 8, 0, 4, 0, 0, 0})                   // attributes: unsorted, a duplicate
	f.Add([]byte{3, 0x21, 3, 0x43, 7, 0x00, 7, 0x55})       // predicates: two to intersect, a tautology by intersection
	f.Add([]byte{3, 0x00, 11, 0x91, 3, 0x05})               // a tautology, then a bound on its attribute
	f.Add([]byte{1, 0, 1, 1, 5, 0, 1, 0, 2, 9, 2, 1, 2, 9}) // aggregates and windows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		checkNormalize(t, queryFromBytes(data))
	})
}

var allocTexts = []string{
	"SELECT nodeid, light, temp WHERE light >= 100 AND light <= 300 AND temp > 20 EPOCH DURATION 4096ms",
	"SELECT light WHERE nodeid >= 3 AND nodeid <= 9 EPOCH DURATION 8192ms",
	"SELECT SUM(light), COUNT(light) WHERE nodeid >= 3 AND nodeid <= 9 EPOCH DURATION 2048ms",
	"SELECT MAX(light), MIN(temp) WHERE temp > 20 GROUP BY temp BUCKET 10 EPOCH DURATION 8192ms",
	"SELECT WINAVG(light, 4, 2), WINMAX(temp, 4, 2) WHERE humidity > 5 EPOCH DURATION 2048ms",
	"SELECT humidity EPOCH DURATION 2048ms",
}

// TestCanonicalHelpersAllocateNothing: on canonical operands — what tier 1
// holds and passes — the helpers of the algebra are free of allocation, so an
// admission's scan of the synthetic table costs comparisons only.
func TestCanonicalHelpersAllocateNothing(t *testing.T) {
	var qs []Query
	for _, text := range allocTexts {
		qs = append(qs, MustParse(text).Normalize())
	}
	var sink int
	tick := func(ok bool) {
		if ok {
			sink++
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, a := range qs {
			tick(len(a.Normalize().Preds) > 0)
			tick(a.Validate() == nil)
			for _, b := range qs {
				tick(a.Equal(b))
				tick(PredsEqual(a.Preds, b.Preds))
				tick(PredsCover(a.Preds, b.Preds))
				tick(Covers(a, b))
				tick(Rewritable(a, b))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per pass over canonical operands, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("no helper ever answered yes")
	}
}
