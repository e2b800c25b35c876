package tier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

// evalQuery is the oracle: direct evaluation of an aggregation query over
// one epoch's readings with the in-network semantics (query.AggState) — a
// sensor contributes when its reading vector satisfies every predicate, and
// an aggregate no sensor contributed to is Empty.
func evalQuery(q query.Query, at sim.Time, readings []map[field.Attr]float64) []query.AggResult {
	out := make([]query.AggResult, 0, len(q.Aggs))
	for _, a := range q.Aggs {
		st := query.NewAggState(a)
		for _, vals := range readings {
			if flat := field.ValuesOf(vals); q.MatchesValues(&flat) {
				st.Add(vals[a.Attr])
			}
		}
		v, ok := st.Result()
		out = append(out, query.AggResult{Time: at, Agg: a, Value: v, Empty: !ok})
	}
	return out
}

// partitionCase is one generated scenario: a deployment of `sensors`
// sensors with one epoch of readings, a block width to partition by, and an
// aggregation query with a value predicate and (maybe) a region.
type partitionCase struct {
	sensors, width int
	q              query.Query
	readings       []map[field.Attr]float64 // index i-1 = sensor i
}

func genPartitionCase(rng *rand.Rand, sensors, width int, lo, hi float64, region bool) partitionCase {
	c := partitionCase{sensors: sensors, width: width}
	attrs := []field.Attr{field.AttrLight, field.AttrTemp}
	ops := []query.AggOp{query.Sum, query.Count, query.Min, query.Max, query.Avg}
	// Duplicates and AVG beside its explicit SUM/COUNT come up by chance;
	// force the latter every few cases.
	for n := 1 + rng.Intn(5); n > 0; n-- {
		c.q.Aggs = append(c.q.Aggs, query.Agg{Op: ops[rng.Intn(len(ops))], Attr: attrs[rng.Intn(len(attrs))]})
	}
	if rng.Intn(4) == 0 {
		a := attrs[rng.Intn(len(attrs))]
		c.q.Aggs = append(c.q.Aggs, query.Agg{Op: query.Avg, Attr: a}, query.Agg{Op: query.Sum, Attr: a}, query.Agg{Op: query.Count, Attr: a})
	}
	c.q.Epoch = 8192 * time.Millisecond
	// A value predicate that some sensors fail, so pieces come up empty.
	vlo := rng.Float64() * 60
	c.q.Preds = []query.Predicate{{Attr: field.AttrLight, Min: vlo, Max: vlo + rng.Float64()*80}}
	if region {
		c.q.Preds = append(c.q.Preds, query.Predicate{Attr: field.AttrNodeID, Min: lo, Max: hi})
	}
	c.readings = genReadings(rng, sensors)
	return c
}

// genReadings draws one epoch of readings for sensors 1..sensors.
func genReadings(rng *rand.Rand, sensors int) []map[field.Attr]float64 {
	var out []map[field.Attr]float64
	for i := 1; i <= sensors; i++ {
		out = append(out, map[field.Attr]float64{
			field.AttrNodeID: float64(i),
			field.AttrLight:  rng.Float64() * 100,
			field.AttrTemp:   rng.Float64()*60 - 20,
		})
	}
	return out
}

// check asserts the algebra's defining property on one scenario:
// Finish(partition(q)) == eval(q), with the pieces disjoint and covering
// the region exactly.
func (c partitionCase) check(t *testing.T) {
	t.Helper()
	n := c.q.Normalize()
	region, err := Region(n, c.sensors)
	pred, hasPred := n.PredFor(field.AttrNodeID)
	inRegion := func(id int) bool { return !hasPred || pred.Matches(float64(id)) }
	selected := 0
	for id := 1; id <= c.sensors; id++ {
		if inRegion(id) {
			selected++
			if err == nil && (id < region.Lo || id > region.Hi) {
				t.Fatalf("%s: sensor %d satisfies the predicate but lies outside region %v", n, id, region)
			}
		}
	}
	if err != nil {
		if selected != 0 {
			t.Fatalf("%s: rejected (%v) but %d sensors satisfy the predicate", n, err, selected)
		}
		return
	}
	if selected != region.Len() {
		t.Fatalf("%s: region %v holds %d ids, predicate selects %d", n, region, region.Len(), selected)
	}

	pieces := Split(region, c.width)
	next := region.Lo
	for i, r := range pieces {
		if r.Lo != next || r.Hi < r.Lo {
			t.Fatalf("%s: piece %d = %v does not continue at %d (pieces %v)", n, i, r, next, pieces)
		}
		if (r.Lo-1)/c.width != (r.Hi-1)/c.width {
			t.Fatalf("%s: piece %v crosses a width-%d block boundary", n, r, c.width)
		}
		next = r.Hi + 1
	}
	if next != region.Hi+1 {
		t.Fatalf("%s: pieces %v stop at %d, region ends at %d", n, pieces, next-1, region.Hi)
	}

	const at = sim.Time(8192 * time.Millisecond)
	basis := Basis(c.q.Aggs)
	for _, a := range basis {
		if a.Op == query.Avg {
			t.Fatalf("basis %v of %v still carries AVG", basis, c.q.Aggs)
		}
	}
	var acc Acc
	for _, r := range pieces {
		acc.Add(evalQuery(Piece(n, basis, r, c.sensors), at, c.readings))
	}
	c.assertEval(t, fmt.Sprintf("%s over %v", n, pieces), acc.Finish(at, c.q.Aggs), at, c.readings)
}

// assertEval asserts that got, a Finish at instant at of the case's query,
// equals direct evaluation over readings: exactly for COUNT, MIN and MAX and
// Empty, to rounding for SUM and AVG (a fold may add in any order).
func (c partitionCase) assertEval(t *testing.T, what string, got []query.AggResult, at sim.Time, readings []map[field.Attr]float64) {
	t.Helper()
	// The raw list, duplicates and all, is what a caller may ask Finish for.
	want := c.q.Normalize()
	want.Aggs = c.q.Aggs
	exp := evalQuery(want, at, readings)
	if len(got) != len(exp) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(exp))
	}
	for i, g := range got {
		e := exp[i]
		if g.Agg != e.Agg || g.Time != at || g.Group != 0 || g.Empty != e.Empty {
			t.Fatalf("%s: result %d = %+v, want %+v", what, i, g, e)
		}
		if g.Empty {
			if g.Value != 0 {
				t.Fatalf("%s: empty %v carries value %g", what, g.Agg, g.Value)
			}
			continue
		}
		tol := 0.0 // COUNT, MIN, MAX are exact
		if g.Agg.Op == query.Sum || g.Agg.Op == query.Avg {
			tol = 1e-9 * math.Max(1, math.Abs(e.Value))
		}
		if math.Abs(g.Value-e.Value) > tol {
			t.Fatalf("%s: %v = %v, want %v", what, g.Agg, g.Value, e.Value)
		}
	}
}

// TestPartitionFinishEqualsEval: folding a partition's per-piece basis
// aggregates through Basis/Acc/Finish equals direct evaluation over the
// whole region — for shard-shaped partitions (1–8 equal blocks) and
// cell-shaped ones (widths 1–16 over any deployment).
func TestPartitionFinishEqualsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		var sensors, width int
		if i%2 == 0 {
			width = 1 + rng.Intn(12) // sensors per shard
			sensors = (1 + rng.Intn(8)) * width
		} else {
			width = 1 + rng.Intn(16) // cell
			sensors = 1 + rng.Intn(80)
		}
		lo := float64(rng.Intn(sensors+6) - 3)
		hi := lo + float64(rng.Intn(sensors+6)-2)
		if rng.Intn(5) == 0 { // fractional bounds round inward
			lo += rng.Float64()
			hi -= rng.Float64()
		}
		genPartitionCase(rng, sensors, width, lo, hi, rng.Intn(6) != 0).check(t)
	}
}

func FuzzPartition(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(8), 3.0, 20.0)
	f.Add(int64(2), uint8(60), uint8(15), 100.0, 120.0)
	f.Add(int64(3), uint8(15), uint8(4), 0.2, 0.8)
	f.Add(int64(4), uint8(1), uint8(1), 1.0, 1.0)
	// Bounds outside int range must be clipped before any int conversion.
	f.Add(int64(5), uint8(60), uint8(8), 1e300, math.Inf(1))
	f.Add(int64(6), uint8(60), uint8(8), 1e19, 1e19)
	f.Add(int64(7), uint8(60), uint8(8), math.Inf(-1), -1e300)
	f.Add(int64(8), uint8(60), uint8(8), -1e300, 1e300)
	f.Fuzz(func(t *testing.T, seed int64, sensors, width uint8, lo, hi float64) {
		if sensors == 0 || width == 0 || math.IsNaN(lo) || math.IsNaN(hi) {
			t.Skip()
		}
		genPartitionCase(rand.New(rand.NewSource(seed)), int(sensors), int(width), lo, hi, true).check(t)
	})
}

// TestFinishOrderAndGroups pins what the property test cannot see with one
// ungrouped bucket: results come in (agg position, group) order, a bucket
// some piece never reported is Empty for that aggregate only, and an AVG
// partial from an undivided query folds as the identity.
func TestFinishOrderAndGroups(t *testing.T) {
	mx := query.Agg{Op: query.Max, Attr: field.AttrLight}
	avg := query.Agg{Op: query.Avg, Attr: field.AttrTemp}
	sum := query.Agg{Op: query.Sum, Attr: field.AttrTemp}
	cnt := query.Agg{Op: query.Count, Attr: field.AttrTemp}
	var acc Acc
	acc.Add([]query.AggResult{
		{Agg: mx, Group: 2, Value: 7}, {Agg: mx, Group: 1, Value: 3},
		{Agg: sum, Group: 1, Value: 10}, {Agg: cnt, Group: 1, Value: 4},
	})
	acc.Add([]query.AggResult{
		{Agg: mx, Group: 1, Value: 9}, {Agg: mx, Group: 2, Empty: true},
		{Agg: sum, Group: 1, Value: 5}, {Agg: cnt, Group: 1, Value: 1},
	})
	got := fmt.Sprint(acc.Finish(0, []query.Agg{avg, mx}))
	want := fmt.Sprint([]query.AggResult{
		{Agg: avg, Group: 1, Value: 3}, {Agg: avg, Group: 2, Empty: true},
		{Agg: mx, Group: 1, Value: 9}, {Agg: mx, Group: 2, Value: 7},
	})
	if got != want {
		t.Fatalf("Finish = %s\nwant     %s", got, want)
	}

	var whole Acc
	whole.Add([]query.AggResult{{Agg: avg, Value: 21.5}})
	if r := whole.Finish(0, []query.Agg{avg}); len(r) != 1 || r[0].Empty || r[0].Value != 21.5 {
		t.Fatalf("undivided AVG = %+v, want 21.5", r)
	}
}
