package query

import (
	"testing"

	"repro/internal/field"
)

func TestParseGroupBy(t *testing.T) {
	q := MustParse("SELECT AVG(light) GROUP BY temp BUCKET 10 EPOCH DURATION 4096")
	if q.GroupBy == nil || q.GroupBy.Attr != field.AttrTemp || q.GroupBy.Width != 10 {
		t.Fatalf("group = %+v", q.GroupBy)
	}
	// Default bucket width is 1.
	q2 := MustParse("SELECT COUNT(nodeid) GROUP BY nodeid EPOCH DURATION 4096")
	if q2.GroupBy.Width != 1 {
		t.Fatalf("default width = %g", q2.GroupBy.Width)
	}
	// Round trip.
	back := MustParse(q.String())
	if !back.GroupBy.Equal(q.GroupBy) || !back.Equal(q) {
		t.Fatalf("round trip: %s vs %s", q, back)
	}
	back2 := MustParse(q2.String())
	if !back2.Equal(q2) {
		t.Fatalf("round trip: %s vs %s", q2, back2)
	}
}

func TestGroupByValidation(t *testing.T) {
	if _, err := Parse("SELECT light GROUP BY temp EPOCH DURATION 4096"); err == nil {
		t.Fatal("GROUP BY on acquisition must be rejected")
	}
	bad := MustParse("SELECT MAX(light) EPOCH DURATION 4096")
	bad.GroupBy = &GroupBy{Attr: field.AttrTemp, Width: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bucket width must be rejected")
	}
	if _, err := Parse("SELECT MAX(light) GROUP BY bogus EPOCH DURATION 4096"); err == nil {
		t.Fatal("unknown group attribute must be rejected")
	}
	if _, err := Parse("SELECT MAX(light) GROUP BY temp BUCKET x EPOCH DURATION 4096"); err == nil {
		t.Fatal("non-numeric bucket must be rejected")
	}
}

func TestGroupByKey(t *testing.T) {
	g := GroupBy{Attr: field.AttrTemp, Width: 10}
	cases := []struct {
		v    float64
		want int64
	}{{0, 0}, {9.99, 0}, {10, 1}, {25, 2}, {-0.1, -1}, {-10, -1}, {-10.1, -2}}
	for _, c := range cases {
		if got := g.Key(c.v); got != c.want {
			t.Errorf("Key(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestGroupByEqual(t *testing.T) {
	a := &GroupBy{Attr: field.AttrTemp, Width: 10}
	b := &GroupBy{Attr: field.AttrTemp, Width: 10}
	c := &GroupBy{Attr: field.AttrTemp, Width: 5}
	d := &GroupBy{Attr: field.AttrLight, Width: 10}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) || a.Equal(nil) {
		t.Fatal("Equal broken")
	}
	var nilG *GroupBy
	if !nilG.Equal(nil) {
		t.Fatal("nil == nil")
	}
}

func TestGroupBySemantics(t *testing.T) {
	g1 := MustParse("SELECT MAX(light) WHERE temp > 20 GROUP BY nodeid BUCKET 4 EPOCH DURATION 4096")
	g2 := MustParse("SELECT MIN(light) WHERE temp > 20 GROUP BY nodeid BUCKET 4 EPOCH DURATION 8192")
	g3 := MustParse("SELECT MAX(light) WHERE temp > 20 GROUP BY nodeid BUCKET 8 EPOCH DURATION 4096")
	ungrouped := MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")

	if !Rewritable(g1, g2) {
		t.Fatal("same-group aggregations must be rewritable")
	}
	if Rewritable(g1, g3) {
		t.Fatal("different bucket widths must not be rewritable")
	}
	if Rewritable(g1, ungrouped) {
		t.Fatal("grouped and ungrouped must not be rewritable")
	}

	// An acquisition query covers a grouped aggregate only if it acquires
	// the grouping attribute.
	acqFull := MustParse("SELECT light, nodeid WHERE temp > 20 EPOCH DURATION 4096")
	acqNoGroup := MustParse("SELECT light WHERE temp > 20 EPOCH DURATION 4096")
	if !Covers(acqFull, g1) {
		t.Fatal("acquisition with group attr must cover")
	}
	if Covers(acqNoGroup, g1) {
		t.Fatal("acquisition without group attr must not cover")
	}
}

func TestGroupedAggStateIdentity(t *testing.T) {
	a := NewGroupedAggState(Agg{Max, field.AttrLight}, 1)
	b := NewGroupedAggState(Agg{Max, field.AttrLight}, 2)
	a.Add(7)
	b.Add(7)
	if a.SameValue(b) {
		t.Fatal("different groups must not share a packet slot")
	}
	c := NewGroupedAggState(Agg{Max, field.AttrLight}, 1)
	c.Add(7)
	if !a.SameValue(c) {
		t.Fatal("same group, same state must share")
	}
}

func TestSampledAttrsIncludesGroup(t *testing.T) {
	q := MustParse("SELECT MAX(light) GROUP BY temp BUCKET 5 EPOCH DURATION 4096")
	found := false
	for _, a := range q.SampledAttrs() {
		if a == field.AttrTemp {
			found = true
		}
	}
	if !found {
		t.Fatalf("sampled attrs %v must include the grouping attribute", q.SampledAttrs())
	}
}
