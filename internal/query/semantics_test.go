package query

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/field"
)

func TestEpochGCD(t *testing.T) {
	cases := []struct{ a, b, want time.Duration }{
		{2048 * time.Millisecond, 4096 * time.Millisecond, 2048 * time.Millisecond},
		{4096 * time.Millisecond, 6144 * time.Millisecond, 2048 * time.Millisecond},
		{8192 * time.Millisecond, 8192 * time.Millisecond, 8192 * time.Millisecond},
		{0, 4096 * time.Millisecond, 4096 * time.Millisecond},
		{4096 * time.Millisecond, 0, 4096 * time.Millisecond},
	}
	for _, c := range cases {
		if got := EpochGCD(c.a, c.b); got != c.want {
			t.Errorf("EpochGCD(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestEpochGCDAll(t *testing.T) {
	qs := []Query{
		{Epoch: 8192 * time.Millisecond},
		{Epoch: 12288 * time.Millisecond},
		{Epoch: 20480 * time.Millisecond},
	}
	if got := EpochGCDAll(qs); got != 4096*time.Millisecond {
		t.Fatalf("got %v, want 4096ms", got)
	}
	if got := EpochGCDAll(nil); got != 0 {
		t.Fatalf("empty set GCD = %v, want 0", got)
	}
}

func TestEpochDivides(t *testing.T) {
	if !EpochDivides(2048*time.Millisecond, 4096*time.Millisecond) {
		t.Fatal("2048 divides 4096")
	}
	if EpochDivides(4096*time.Millisecond, 6144*time.Millisecond) {
		t.Fatal("4096 does not divide 6144")
	}
	if EpochDivides(0, 4096*time.Millisecond) {
		t.Fatal("zero divides nothing")
	}
}

func TestPredsCover(t *testing.T) {
	wide := []Predicate{{field.AttrLight, 0, 1000}}
	narrow := []Predicate{{field.AttrLight, 100, 200}}
	if !PredsCover(wide, narrow) {
		t.Fatal("wide should cover narrow")
	}
	if PredsCover(narrow, wide) {
		t.Fatal("narrow cannot cover wide")
	}
	// Attribute constrained only in sub: sup is looser, still covers.
	two := []Predicate{{field.AttrLight, 100, 200}, {field.AttrTemp, 0, 50}}
	if !PredsCover(narrow, two) {
		t.Fatal("sup constrained on fewer attrs should cover")
	}
	// Attribute constrained only in sup: does not cover.
	if PredsCover(two, narrow) {
		t.Fatal("sup with extra constraint cannot cover")
	}
	// Empty sup covers anything.
	if !PredsCover(nil, narrow) {
		t.Fatal("unconstrained sup covers all")
	}
}

func TestCoversAcquisition(t *testing.T) {
	syn := MustParse("SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	q := MustParse("SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	if !Covers(syn, q) {
		t.Fatal("syn should cover q")
	}
	// Epoch not divisible.
	q2 := MustParse("SELECT light WHERE light >= 100 AND light <= 300 EPOCH DURATION 6144")
	syn2 := MustParse("SELECT light WHERE light >= 0 AND light <= 600 EPOCH DURATION 4096")
	if Covers(syn2, q2) {
		t.Fatal("4096 does not divide 6144")
	}
	// Missing projection attribute.
	q3 := MustParse("SELECT temp, humidity EPOCH DURATION 4096")
	if Covers(syn, q3) {
		t.Fatal("humidity not acquired by syn")
	}
	// Predicate on attribute the syn neither filters identically nor acquires.
	synNoHum := MustParse("SELECT light, temp EPOCH DURATION 2048")
	q4 := MustParse("SELECT light WHERE humidity > 50 EPOCH DURATION 4096")
	if Covers(synNoHum, q4) {
		t.Fatal("humidity predicate not derivable")
	}
	// Identical in-network predicate needs no re-filter attribute.
	syn5 := MustParse("SELECT light WHERE humidity > 50 EPOCH DURATION 2048")
	q5 := MustParse("SELECT light WHERE humidity > 50 EPOCH DURATION 4096")
	if !Covers(syn5, q5) {
		t.Fatal("identical predicate should be derivable without acquiring the attribute")
	}
}

func TestCoversAggregationFromAcquisition(t *testing.T) {
	syn := MustParse("SELECT light, temp WHERE light >= 0 AND light <= 600 EPOCH DURATION 2048")
	q := MustParse("SELECT MAX(light) WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	if !Covers(syn, q) {
		t.Fatal("aggregation should be derivable from covering acquisition")
	}
	q2 := MustParse("SELECT MAX(humidity) WHERE light >= 100 AND light <= 300 EPOCH DURATION 4096")
	if Covers(syn, q2) {
		t.Fatal("aggregate input not acquired")
	}
}

func TestCoversAggregationFromAggregation(t *testing.T) {
	syn := MustParse("SELECT MAX(light), MIN(light) WHERE temp > 20 EPOCH DURATION 2048")
	q := MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 8192")
	if !Covers(syn, q) {
		t.Fatal("same-predicate aggregation should be covered")
	}
	qDiffPred := MustParse("SELECT MAX(light) WHERE temp > 30 EPOCH DURATION 8192")
	if Covers(syn, qDiffPred) {
		t.Fatal("different predicates cannot be covered by an aggregation query")
	}
	qAcq := MustParse("SELECT light WHERE temp > 20 EPOCH DURATION 8192")
	if Covers(syn, qAcq) {
		t.Fatal("acquisition cannot be derived from aggregates")
	}
	qOtherOp := MustParse("SELECT AVG(light) WHERE temp > 20 EPOCH DURATION 8192")
	if Covers(syn, qOtherOp) {
		t.Fatal("AVG not in syn's agg list")
	}
}

func TestRewritable(t *testing.T) {
	acq1 := MustParse("SELECT light WHERE light > 5")
	acq2 := MustParse("SELECT temp")
	aggA := MustParse("SELECT MAX(light) WHERE temp > 20")
	aggB := MustParse("SELECT MIN(light) WHERE temp > 20")
	aggC := MustParse("SELECT MAX(light) WHERE temp > 30")
	if !Rewritable(acq1, acq2) {
		t.Fatal("acq+acq always rewritable")
	}
	if !Rewritable(acq1, aggA) || !Rewritable(aggA, acq1) {
		t.Fatal("acq+agg rewritable")
	}
	if !Rewritable(aggA, aggB) {
		t.Fatal("same-predicate aggs rewritable")
	}
	if Rewritable(aggA, aggC) {
		t.Fatal("different-predicate aggs NOT rewritable (§3.1.2)")
	}
}

// genQuery builds a small random query from fuzz inputs.
func genQuery(attrSel, aggSel uint8, lo, hi float64, epochMul uint8, isAgg bool) Query {
	attrs := field.AllAttrs()
	a := attrs[int(attrSel)%len(attrs)]
	pa := attrs[int(aggSel)%len(attrs)]
	if lo > hi {
		lo, hi = hi, lo
	}
	// Clamp into a plausible range to avoid degenerate infinities.
	lo = math.Mod(math.Abs(lo), 500)
	hi = lo + math.Mod(math.Abs(hi), 500)
	q := Query{
		Preds: []Predicate{{Attr: pa, Min: lo, Max: hi}},
		Epoch: time.Duration(1+int(epochMul)%12) * MinEpoch,
	}
	if isAgg {
		q.Aggs = []Agg{{Op: AggOp(1 + int(aggSel)%5), Attr: a}}
	} else {
		q.Attrs = []field.Attr{a}
	}
	return q.Normalize()
}

// Property: Covers implies row-level derivability for acquisition queries —
// any row matching q also matches syn (so syn's stream contains it).
func TestCoversRowSemantics(t *testing.T) {
	f := func(a1, g1 uint8, lo1, hi1 float64, e1 uint8,
		a2, g2 uint8, lo2, hi2 float64, probe float64) bool {
		syn := genQuery(a1, g1, lo1, hi1, e1, false)
		q := genQuery(a2, g2, lo2, hi2, 1, false)
		if !Covers(syn, q) {
			return true
		}
		var row field.Values
		for _, at := range field.AllAttrs() {
			row.Set(at, probe)
		}
		if q.MatchesValues(&row) && !syn.MatchesValues(&row) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: EpochGCD is commutative, divides both inputs, and stays on the
// MinEpoch lattice.
func TestEpochGCDProperty(t *testing.T) {
	f := func(m1, m2 uint8) bool {
		a := time.Duration(1+int(m1)%32) * MinEpoch
		b := time.Duration(1+int(m2)%32) * MinEpoch
		g := EpochGCD(a, b)
		return g == EpochGCD(b, a) &&
			a%g == 0 && b%g == 0 &&
			g%MinEpoch == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
