package query

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/field"
)

func TestValidate(t *testing.T) {
	ok := Query{Attrs: []field.Attr{field.AttrLight}, Epoch: MinEpoch}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	cases := []struct {
		name string
		q    Query
	}{
		{"empty select", Query{Epoch: MinEpoch}},
		{"both lists", Query{Attrs: []field.Attr{field.AttrLight}, Aggs: []Agg{{Max, field.AttrTemp}}, Epoch: MinEpoch}},
		{"zero epoch", Query{Attrs: []field.Attr{field.AttrLight}}},
		{"unaligned epoch", Query{Attrs: []field.Attr{field.AttrLight}, Epoch: 3000 * time.Millisecond}},
		{"empty predicate", Query{Attrs: []field.Attr{field.AttrLight}, Epoch: MinEpoch,
			Preds: []Predicate{{field.AttrLight, 10, 5}}}},
		{"dup pred attr", Query{Attrs: []field.Attr{field.AttrLight}, Epoch: MinEpoch,
			Preds: []Predicate{{field.AttrLight, 0, 5}, {field.AttrLight, 1, 6}}}},
		// Codes the enums do not declare: everything downstream indexes
		// per-attribute arrays and bit sets sized for the declared ones.
		{"undeclared attr", Query{Attrs: []field.Attr{9}, Epoch: MinEpoch}},
		{"zero attr", Query{Attrs: []field.Attr{0}, Epoch: MinEpoch}},
		{"undeclared agg attr", Query{Aggs: []Agg{{Max, 200}}, Epoch: MinEpoch}},
		{"undeclared agg op", Query{Aggs: []Agg{{Avg + 1, field.AttrLight}}, Epoch: MinEpoch}},
		{"undeclared win op", Query{Wins: []Win{{Op: 0, Attr: field.AttrLight, Window: 4, Slide: 1}}, Epoch: MinEpoch}},
		{"undeclared pred attr", Query{Attrs: []field.Attr{field.AttrLight}, Epoch: MinEpoch,
			Preds: []Predicate{{64, 0, 5}}}},
		{"undeclared group attr", Query{Aggs: []Agg{{Max, field.AttrLight}}, Epoch: MinEpoch,
			GroupBy: &GroupBy{Attr: 8, Width: 1}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestNormalizeMergesPredicates(t *testing.T) {
	q := Query{
		Attrs: []field.Attr{field.AttrTemp, field.AttrLight, field.AttrTemp},
		Preds: []Predicate{
			{field.AttrLight, 0, 500},
			{field.AttrLight, 100, 900},
		},
		Epoch: MinEpoch,
	}
	n := q.Normalize()
	if len(n.Attrs) != 2 || n.Attrs[0] != field.AttrLight || n.Attrs[1] != field.AttrTemp {
		t.Fatalf("attrs = %v", n.Attrs)
	}
	if len(n.Preds) != 1 {
		t.Fatalf("preds = %v", n.Preds)
	}
	if n.Preds[0] != (Predicate{field.AttrLight, 100, 500}) {
		t.Fatalf("intersection wrong: %v", n.Preds[0])
	}
	// Original untouched.
	if len(q.Preds) != 2 {
		t.Fatal("Normalize mutated receiver")
	}
}

func TestNormalizeDropsTautology(t *testing.T) {
	q := Query{
		Attrs: []field.Attr{field.AttrLight},
		Preds: []Predicate{{field.AttrLight, math.Inf(-1), math.Inf(1)}},
		Epoch: MinEpoch,
	}
	if got := q.Normalize().Preds; len(got) != 0 {
		t.Fatalf("tautology not dropped: %v", got)
	}
}

func TestMatchesRow(t *testing.T) {
	q := MustParse("SELECT light WHERE light >= 100 AND light <= 200 AND temp > 50")
	cases := []struct {
		row  map[field.Attr]float64
		want bool
	}{
		{map[field.Attr]float64{field.AttrLight: 150, field.AttrTemp: 60}, true},
		{map[field.Attr]float64{field.AttrLight: 150, field.AttrTemp: 50}, false}, // strict
		{map[field.Attr]float64{field.AttrLight: 99, field.AttrTemp: 60}, false},
		{map[field.Attr]float64{field.AttrLight: 100, field.AttrTemp: 51}, true}, // inclusive
		{map[field.Attr]float64{field.AttrLight: 150}, false},                    // missing attr
	}
	for i, c := range cases {
		row := field.ValuesOf(c.row)
		if got := q.MatchesValues(&row); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestSampledAttrs(t *testing.T) {
	q := MustParse("SELECT MAX(light) WHERE temp > 10 EPOCH DURATION 4096")
	got := q.SampledAttrs()
	want := []field.Attr{field.AttrLight, field.AttrTemp}
	if len(got) != len(want) {
		t.Fatalf("sampled = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampled = %v, want %v", got, want)
		}
	}
}

func TestQueryEqual(t *testing.T) {
	a := MustParse("SELECT light, temp WHERE light > 5 EPOCH DURATION 4096")
	b := MustParse("select temp, light where 5 < light epoch duration 4096ms")
	if !a.Equal(b) {
		t.Fatal("semantically identical queries not Equal")
	}
	c := MustParse("SELECT light, temp WHERE light > 5 EPOCH DURATION 2048")
	if a.Equal(c) {
		t.Fatal("different epochs compared Equal")
	}
}

func TestClone(t *testing.T) {
	a := MustParse("SELECT light WHERE light > 5")
	b := a.Clone()
	b.Preds[0].Min = 99
	if a.Preds[0].Min == 99 {
		t.Fatal("Clone shares predicate storage")
	}
}

func TestAggStateMaxMin(t *testing.T) {
	s := NewAggState(Agg{Max, field.AttrLight})
	if _, ok := s.Result(); ok {
		t.Fatal("empty state should have no result")
	}
	s.Add(5)
	s.Add(9)
	s.Add(2)
	if v, ok := s.Result(); !ok || v != 9 {
		t.Fatalf("max = %f, want 9", v)
	}
	s.Agg.Op = Min
	if v, _ := s.Result(); v != 2 {
		t.Fatalf("min = %f, want 2", v)
	}
}

func TestAggStateSumCountAvg(t *testing.T) {
	s := NewAggState(Agg{Avg, field.AttrTemp})
	for _, v := range []float64{10, 20, 30} {
		s.Add(v)
	}
	if v, _ := s.Result(); v != 20 {
		t.Fatalf("avg = %f, want 20", v)
	}
	s.Agg.Op = Sum
	if v, _ := s.Result(); v != 60 {
		t.Fatalf("sum = %f, want 60", v)
	}
	s.Agg.Op = Count
	if v, _ := s.Result(); v != 3 {
		t.Fatalf("count = %f, want 3", v)
	}
}

func TestAggStateMergeEqualsFlat(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	for _, op := range []AggOp{Max, Min, Sum, Count, Avg} {
		flat := NewAggState(Agg{op, field.AttrLight})
		for _, v := range vals {
			flat.Add(v)
		}
		left := NewAggState(Agg{op, field.AttrLight})
		right := NewAggState(Agg{op, field.AttrLight})
		for i, v := range vals {
			if i%2 == 0 {
				left.Add(v)
			} else {
				right.Add(v)
			}
		}
		left.Merge(right)
		fv, _ := flat.Result()
		mv, _ := left.Result()
		if fv != mv {
			t.Errorf("%v: merged %f != flat %f", op, mv, fv)
		}
	}
}

func TestAggStateSameValue(t *testing.T) {
	a := NewAggState(Agg{Max, field.AttrLight})
	b := NewAggState(Agg{Max, field.AttrLight})
	a.Add(5)
	a.Add(7)
	b.Add(5)
	b.Add(7)
	if !a.SameValue(b) {
		t.Fatal("identical partial states must be shareable")
	}
	// Same final MAX but different contributing sets must NOT share (the
	// Figure 2 walk-through: node B sends q_i and q_j separately).
	c := NewAggState(Agg{Max, field.AttrLight})
	c.Add(7)
	if a.SameValue(c) {
		t.Fatal("differing contributing sets must not be shareable")
	}
	// Same final AVG but different components is NOT shareable.
	f := NewAggState(Agg{Avg, field.AttrLight})
	g := NewAggState(Agg{Avg, field.AttrLight})
	f.Add(10)
	g.Add(5)
	g.Add(15)
	if f.SameValue(g) {
		t.Fatal("AVG with different counts must not be shareable")
	}
	// Different operators never share.
	e := NewAggState(Agg{Min, field.AttrLight})
	e.Add(7)
	if a.SameValue(e) {
		t.Fatal("different aggregates must not be shareable")
	}
	// Two empty states of the same aggregate share trivially.
	x, y := NewAggState(Agg{Max, field.AttrTemp}), NewAggState(Agg{Max, field.AttrTemp})
	if !x.SameValue(y) {
		t.Fatal("empty states of same aggregate should be shareable")
	}
}

func TestPredicateBasics(t *testing.T) {
	p := Predicate{field.AttrLight, 10, 20}
	if !p.Matches(10) || !p.Matches(20) || p.Matches(9.999) || p.Matches(20.001) {
		t.Fatal("inclusive range broken")
	}
	if p.Empty() {
		t.Fatal("non-empty range reported Empty")
	}
	if !(Predicate{field.AttrLight, 5, 1}).Empty() {
		t.Fatal("inverted range should be Empty")
	}
	q := Predicate{field.AttrLight, 12, 18}
	if !p.Contains(q) || q.Contains(p) {
		t.Fatal("Contains broken")
	}
	r := Predicate{field.AttrTemp, 12, 18}
	if p.Contains(r) {
		t.Fatal("Contains must require same attribute")
	}
	u := p.Union(Predicate{field.AttrLight, 15, 30})
	if u.Min != 10 || u.Max != 30 {
		t.Fatalf("union = %v", u)
	}
}

// TestAggStringTable: the precomputed operator × attribute names equal the
// formatted spelling for every pair — declared, zero and out of range — and
// the declared ones cost no allocation.
func TestAggStringTable(t *testing.T) {
	for op := 0; op <= int(Avg)+2; op++ {
		for attr := 0; attr <= len(field.AllAttrs())+2; attr++ {
			a := Agg{AggOp(op), field.Attr(attr)}
			if got, want := a.String(), fmt.Sprintf("%s(%s)", a.Op, a.Attr); got != want {
				t.Errorf("Agg{%d,%d}.String() = %q, want %q", op, attr, got, want)
			}
		}
	}
	if got := (Agg{Max, field.AttrLight}).String(); got != "MAX(light)" {
		t.Errorf("MAX(light) renders as %q", got)
	}
	var sink string
	allocs := testing.AllocsPerRun(100, func() {
		for op := Max; op <= Avg; op++ {
			for _, attr := range field.AllAttrs() {
				sink = Agg{op, attr}.String()
			}
		}
	})
	if allocs != 0 || sink == "" {
		t.Errorf("Agg.String allocates %.1f objects per sweep, want 0", allocs)
	}
}
