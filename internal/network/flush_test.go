package network

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// flushFixture is a TTMQO base station whose one synthetic query serves
// `members` user queries firing on one epoch — a covering acquisition plus
// re-filtering acquisitions and aggregates — with one epoch of `rows` rows
// buffered for it, from motes 1, 2, … of a deployment with room for 144.
// refill re-buffers the same epoch without allocating, so a flush can be
// measured repeatedly.
func flushFixture(tb testing.TB, members, rows int) (s *Simulation, inst *installedQuery, at sim.Time, refill func()) {
	tb.Helper()
	topo, err := topology.PaperGrid(13)
	if err != nil {
		tb.Fatal(err)
	}
	s, err = New(Config{Topo: topo, Scheme: TTMQO, Seed: 1, DiscardResults: true})
	if err != nil {
		tb.Fatal(err)
	}
	texts := []string{"SELECT nodeid, light, temp EPOCH DURATION 2048ms"}
	for i := 1; i < members; i++ {
		if i%2 == 1 {
			texts = append(texts, fmt.Sprintf("SELECT light WHERE light >= %d EPOCH DURATION 2048ms", 100*i))
		} else {
			texts = append(texts, fmt.Sprintf("SELECT MAX(light), MIN(temp) WHERE light <= %d EPOCH DURATION 2048ms", 1000-100*i))
		}
	}
	for _, text := range texts {
		if _, err := s.Post(query.MustParse(text)); err != nil {
			tb.Fatal(err)
		}
	}
	if len(s.installed) != 1 {
		tb.Fatalf("fixture: %d network queries, want 1", len(s.installed))
	}
	for _, inst = range s.installed {
	}
	at = sim.Time(query.MinEpoch)
	rng := sim.NewRand(1)
	buf := make([]query.Row, rows)
	for i := range buf {
		buf[i] = query.Row{Node: topology.NodeID(i + 1), Time: at}
		buf[i].Values.Set(field.AttrNodeID, float64(i+1))
		buf[i].Values.Set(field.AttrLight, 1000*rng.Float64())
		buf[i].Values.Set(field.AttrTemp, 100*rng.Float64())
	}
	inst.open = make([]epochBuffer, 0, 1)
	refill = func() { inst.open = append(inst.open[:0], epochBuffer{epochT: at, rows: buf}) }
	return s, inst, at, refill
}

// One flushed epoch allocates per member served — the member's row slice or
// aggregate tuples — and nothing per row: the in-network rows are handed to
// the mapper as they are, filtered and projected by value.
func TestFlushAllocsScaleWithMembers(t *testing.T) {
	allocs := func(members, rows int) float64 {
		s, inst, at, refill := flushFixture(t, members, rows)
		delivered := 0
		s.Results().OnRows = func(ur core.UserRows) { delivered += len(ur.Rows) }
		n := testing.AllocsPerRun(50, func() {
			refill()
			s.flush(inst, at)
		})
		if delivered == 0 {
			t.Fatalf("members=%d rows=%d: the flush delivered no rows", members, rows)
		}
		return n
	}
	for _, members := range []int{1, 4, 8} {
		few, many := allocs(members, 16), allocs(members, 144)
		if few != many {
			t.Errorf("members=%d: %v allocs for 16 rows, %v for 144 — a flush must not allocate per row", members, few, many)
		}
		if limit := float64(4*members + 2); many > limit {
			t.Errorf("members=%d: %v allocs per flushed epoch, want <= %v", members, many, limit)
		}
	}
}

// BenchmarkFlushEpoch is the micro view of the base station closing one
// collection window: 144 buffered rows of one synthetic query observed by
// the cost model, mapped to 8 members and delivered.
func BenchmarkFlushEpoch(b *testing.B) {
	s, inst, at, refill := flushFixture(b, 8, 144)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		s.flush(inst, at)
	}
}

// Rows are buffered as they arrive and ordered once, at the flush: what the
// flush hands on ascends by origin, and an origin put twice keeps its last
// row.
func TestEpochBufferFlushesLastRowPerOriginAscending(t *testing.T) {
	s, inst, at, _ := flushFixture(t, 1, 0)
	var got []query.Row
	s.Results().OnRows = func(ur core.UserRows) { got = append(got, ur.Rows...) }
	row := func(light float64) field.Values {
		var v field.Values
		v.Set(field.AttrLight, light)
		return v
	}
	buf := inst.bufferFor(at)
	for i, origin := range []topology.NodeID{9, 3, 12, 3, 1, 9, 7, 3} {
		buf.put(origin, row(float64(100*i)))
	}
	s.flush(inst, at)
	want := "1:light=400 3:light=700 7:light=600 9:light=500 12:light=200"
	var parts []string
	for _, r := range got {
		if r.Time != at {
			t.Fatalf("row of %d stamped %v, want the epoch %v", r.Node, r.Time, at)
		}
		light, _ := r.Values.Get(field.AttrLight)
		parts = append(parts, fmt.Sprintf("%d:light=%g", r.Node, light))
	}
	if s := strings.Join(parts, " "); s != want {
		t.Fatalf("flushed rows %s, want %s", s, want)
	}
}
