package chaos

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/stack"
	"repro/internal/tier"
	"repro/internal/topology"
)

// TestClosedStreamReportedOnceOthersDrain runs the one drain over a gateway
// whose subscriber buffer holds a single update: the stream on the 4096 ms
// query gets two a round, overflows and is evicted, while the 8192 ms streams
// — two of them behind it in drain order — never fill theirs. The closure
// must be reported exactly once and every other stream must keep draining:
// a loop that stops at the closed stream leaves the later ones to overflow
// in their turn, and one that keeps the closed stream reports it again every
// round.
func TestClosedStreamReportedOnceOthersDrain(t *testing.T) {
	pool := []query.Query{
		query.MustParse("SELECT MAX(light) EPOCH DURATION 8192"),
		query.MustParse("SELECT MIN(temp) EPOCH DURATION 4096"),
		query.MustParse("SELECT nodeid, light WHERE light >= 200 EPOCH DURATION 8192"),
	}
	perStream := map[tier.SubID]int64{}
	d := &drill{
		name: "evict-one", side: 3, clients: 4, // pool[1] goes to the second client only
		spec: func(r *run) (stack.Spec, error) {
			cfg, err := r.gatewayConfig()
			cfg.Buffer = 1
			return stack.Spec{Gateway: cfg}, err
		},
		pool: func(*run) []query.Query { return pool }, perClient: 1,
		observe: func(_ *run, _ *stream, u tier.Update) { perStream[u.Sub]++ },
	}
	rep, err := d.run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "closed mid-run (evicted)") {
		t.Fatalf("want exactly one closed-stream violation, got %q", rep.Violations)
	}
	if rep.Gateway.Evicted != 1 {
		t.Fatalf("evicted %d streams, want 1: the survivors were not drained every round", rep.Gateway.Evicted)
	}
	// Every update the gateway fanned out reached its client, and each of the
	// three survivors streamed to the end of the run.
	if rep.Updates != rep.Gateway.Updates || rep.Gaps != 0 {
		t.Fatalf("clients saw %d of the %d updates delivered (%d gaps)", rep.Updates, rep.Gateway.Updates, rep.Gaps)
	}
	survivors := 0
	for _, n := range perStream {
		if n >= int64(rep.Rounds)-3 {
			survivors++
		}
	}
	if survivors != 3 {
		t.Fatalf("%d streams delivered through the run, want 3: %v", survivors, perStream)
	}
}

// TestRowsCheckedByValue feeds the script drill's row check one fabricated
// epoch: a faithful row passes; a row whose value is not the field's, a row
// that fails the query's predicate and a second row from the same node each
// count as a ValueMismatch.
func TestRowsCheckedByValue(t *testing.T) {
	sc, _ := Builtin("none")
	r := &run{d: findDrill(ScriptDrill), cfg: Config{Seed: 1, Side: 4, Script: sc}, rep: &Report{}}
	if _, err := scriptSpec(r); err != nil {
		t.Fatal(err)
	}
	const at = 8192 * 1e6
	row := func(node int, light float64) query.Row {
		var v field.Values
		v.Set(field.AttrLight, light)
		return query.Row{Node: topology.NodeID(node), Time: at, Values: v}
	}
	// The brightest node satisfies a predicate cut between it and the
	// dimmest, which does not.
	ok, low := 1, 1
	for i := 2; i < r.truth.topo.Size(); i++ {
		if v := r.truth.light(topology.NodeID(i), at); v > r.truth.light(topology.NodeID(ok), at) {
			ok = i
		} else if v < r.truth.light(topology.NodeID(low), at) {
			low = i
		}
	}
	cut := (r.truth.light(topology.NodeID(ok), at) + r.truth.light(topology.NodeID(low), at)) / 2
	s := &stream{q: query.MustParse(fmt.Sprintf("SELECT nodeid, light WHERE light >= %d EPOCH DURATION 8192", int(cut)+1))}
	truth := r.truth.light(topology.NodeID(ok), at)
	observeRows(r, s, tier.Update{At: at, Rows: []query.Row{row(ok, truth)}})
	if r.rep.ValueMismatches != 0 {
		t.Fatalf("a faithful row counted as %d mismatches", r.rep.ValueMismatches)
	}
	observeRows(r, s, tier.Update{At: at, Rows: []query.Row{
		row(ok, truth+1), // altered
		row(low, r.truth.light(topology.NodeID(low), at)), // true to the field, but filtered out by the predicate
		row(ok, truth+1), // and the first node again
	}})
	if r.rep.ValueMismatches != 3 {
		t.Fatalf("altered + unmatched + repeated rows counted as %d mismatches, want 3", r.rep.ValueMismatches)
	}
}
