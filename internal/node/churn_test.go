package node

import (
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// stateSize counts everything a mote holds per query: installed queries,
// neighbor sightings, open aggregation buffers, SRT prunes, tombstone runs.
func (n *Node) stateSize() int {
	size := len(n.queries) + len(n.pending) + len(n.pruned) + len(n.aborted)
	for _, known := range n.knows {
		size += len(known)
	}
	return size
}

// Regression: a mote used to remember every query ID it ever saw — a
// neighbor-knowledge entry per (neighbor, query) and a tombstone per query,
// for ever — so a long-running network under query churn grew without
// bound. State must track the queries alive now, not the queries ever run.
func TestChurnLeavesMoteStateFlat(t *testing.T) {
	topo, err := topology.PaperGrid(4)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, topo, InNetwork(), field.New(topo, field.Config{Seed: 5}))
	texts := []string{
		"SELECT light WHERE light >= 0 EPOCH DURATION 2048",
		"SELECT MAX(temp) WHERE temp >= 0 EPOCH DURATION 2048",
		"SELECT nodeid, temp WHERE nodeid >= 4 AND nodeid <= 11 EPOCH DURATION 2048", // SRT-pruned on some motes
		"SELECT MIN(light) WHERE light >= 0 EPOCH DURATION 4096",
	}
	maxState := func() int {
		worst := 0
		for _, n := range r.nodes {
			worst = max(worst, n.stateSize())
		}
		return worst
	}

	// Two queries overlap at any time: query i is installed before query
	// i-1 is aborted, and each runs long enough to fire, be relayed and be
	// overheard, so sightings, buffers and tombstones all accrue.
	const cycles = 5000
	early := 0
	for i := 1; i <= cycles; i++ {
		q := query.MustParse(texts[i%len(texts)])
		q.ID = query.ID(i)
		now := r.engine.Now()
		r.flood(q, (now/sim.Time(q.Epoch)+1)*sim.Time(q.Epoch))
		r.engine.Run(now + 5*time.Second)
		if i > 1 {
			r.abort(query.ID(i - 1))
		}
		r.engine.Run(r.engine.Now() + 2*time.Second)
		if i == 200 {
			early = maxState()
		}
	}
	if len(r.atBS) < cycles {
		t.Fatalf("only %d result messages reached the base station over %d cycles; the queries did not run", len(r.atBS), cycles)
	}
	late := maxState()
	if early == 0 || late > early+4 {
		t.Fatalf("per-mote state grew from %d entries after 200 cycles to %d after %d", early, late, cycles)
	}
	// On this deployment every mote hears every abort, so each one's
	// tombstones must be complete and, the IDs being consecutive, one run.
	for id, n := range r.nodes {
		for qid := query.ID(1); qid < cycles; qid++ {
			if !n.aborted.has(qid) {
				t.Fatalf("node %d lost the tombstone of query %d", id, qid)
			}
		}
		if len(n.aborted) != 1 {
			t.Fatalf("node %d holds %d tombstone runs for one contiguous history", id, len(n.aborted))
		}
	}
}

// idRuns must behave as the set it replaced, whatever the insertion order.
func TestIDRunsMatchesSet(t *testing.T) {
	rng := sim.NewRand(9)
	for round := 0; round < 200; round++ {
		var runs idRuns
		set := map[query.ID]bool{}
		span := 1 + rng.Intn(40)
		for i := 0; i < 60; i++ {
			id := query.ID(1<<20 + rng.Intn(span))
			runs.add(id)
			set[id] = true
			for probe := query.ID(1<<20 - 2); probe < query.ID(1<<20+span+2); probe++ {
				if runs.has(probe) != set[probe] {
					t.Fatalf("round %d: has(%d) = %v after adds %v; runs %v", round, probe, runs.has(probe), set, runs)
				}
			}
			for j := 1; j < len(runs); j++ {
				if runs[j-1].hi+1 >= runs[j].lo || runs[j].lo > runs[j].hi {
					t.Fatalf("round %d: runs not ascending, disjoint and non-adjacent: %v", round, runs)
				}
			}
		}
	}
}
