package query

import (
	"testing"
	"time"

	"repro/internal/field"
)

func TestParseWindowed(t *testing.T) {
	q := MustParse("SELECT WINAVG(light, 8, 2), WINMAX(temp, 4, 2) WHERE light > 100 EPOCH DURATION 4096")
	if !q.IsWindowed() || len(q.Wins) != 2 {
		t.Fatalf("wins = %v", q.Wins)
	}
	if q.Wins[0] != (Win{Op: Avg, Attr: field.AttrLight, Window: 8, Slide: 2}) {
		t.Fatalf("win[0] = %+v", q.Wins[0])
	}
	if q.ReportEvery() != 2*4096*time.Millisecond {
		t.Fatalf("report every = %v", q.ReportEvery())
	}
	// Round trip.
	back := MustParse(q.String())
	if !q.Equal(back) {
		t.Fatalf("round trip: %s vs %s", q, back)
	}
	// Default slide is 1.
	q2 := MustParse("SELECT WINSUM(humidity, 16) EPOCH DURATION 2048")
	if q2.Wins[0].Slide != 1 || q2.ReportEvery() != 2048*time.Millisecond {
		t.Fatalf("q2 = %v", q2.Wins)
	}
}

func TestParseWindowedErrors(t *testing.T) {
	cases := []string{
		"SELECT WINFROB(light, 4)",
		"SELECT WINAVG(light)",
		"SELECT WINAVG(light, 2.5)",
		"SELECT WINAVG(light, 4, 1.5)",
		"SELECT WINAVG(bogus, 4)",
		"SELECT WINAVG(light, 4), temp",               // mixed with attrs
		"SELECT WINAVG(light, 4), MAX(temp)",          // mixed with aggs
		"SELECT WINAVG(light, 4, 2), WINMAX(temp, 4)", // differing slides
		"SELECT WINAVG(light, 4), WINMAX(light, 4)",   // conflicting specs on one attr
		"SELECT WINAVG(light, 0)",
		"SELECT WINAVG(light, 4) GROUP BY temp",
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): expected error", s)
		}
	}
}

func TestWindowRing(t *testing.T) {
	r := NewWindowRing(3)
	if _, ok := r.Aggregate(Avg); ok {
		t.Fatal("empty ring must have no value")
	}
	r.Push(1)
	if v, ok := r.Aggregate(Avg); !ok || v != 1 {
		t.Fatalf("partial window avg = %f", v)
	}
	r.Push(2)
	r.Push(3)
	if v, _ := r.Aggregate(Avg); v != 2 {
		t.Fatalf("avg = %f", v)
	}
	r.Push(10) // evicts 1
	if v, _ := r.Aggregate(Avg); v != 5 {
		t.Fatalf("sliding avg = %f, want (2+3+10)/3", v)
	}
	if v, _ := r.Aggregate(Max); v != 10 {
		t.Fatalf("max = %f", v)
	}
	if v, _ := r.Aggregate(Min); v != 2 {
		t.Fatalf("min = %f", v)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestWindowedSemantics(t *testing.T) {
	w1 := MustParse("SELECT WINAVG(light, 8, 2) WHERE temp > 20 EPOCH DURATION 4096")
	w2 := MustParse("SELECT WINMAX(humidity, 4, 4) WHERE temp > 20 EPOCH DURATION 4096")
	w3 := MustParse("SELECT WINAVG(light, 4) WHERE temp > 20 EPOCH DURATION 4096")
	acq := MustParse("SELECT light WHERE temp > 20 EPOCH DURATION 4096")
	agg := MustParse("SELECT MAX(light) WHERE temp > 20 EPOCH DURATION 4096")

	if !Rewritable(w1, w2) {
		t.Fatal("compatible windowed queries must be rewritable")
	}
	if Rewritable(w1, w3) {
		t.Fatal("conflicting specs on one attribute must not be rewritable")
	}
	if Rewritable(w1, acq) || Rewritable(w1, agg) || Rewritable(acq, w1) {
		t.Fatal("windowed queries merge only with windowed queries")
	}
	if Covers(acq, w1) {
		t.Fatal("an acquisition query does not cover a windowed one")
	}
}

func TestRowAttrs(t *testing.T) {
	q := MustParse("SELECT WINAVG(light, 4), WINMAX(temp, 4) EPOCH DURATION 2048")
	got := q.RowAttrs()
	if len(got) != 2 || got[0] != field.AttrLight || got[1] != field.AttrTemp {
		t.Fatalf("row attrs = %v", got)
	}
	plain := MustParse("SELECT humidity EPOCH DURATION 2048")
	if got := plain.RowAttrs(); len(got) != 1 || got[0] != field.AttrHumidity {
		t.Fatalf("plain row attrs = %v", got)
	}
}

func TestWindowedSampledAttrs(t *testing.T) {
	q := MustParse("SELECT WINAVG(light, 4) WHERE temp > 20 EPOCH DURATION 2048")
	attrs := q.SampledAttrs()
	if len(attrs) != 2 {
		t.Fatalf("sampled = %v", attrs)
	}
}
