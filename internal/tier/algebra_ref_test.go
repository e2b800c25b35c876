package tier

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

// The reference accumulator: the map-per-epoch Acc this package shipped
// before the partials went into a slice, kept here — as internal/core keeps
// its map-per-row mapper — so the flat one is checked, bit for bit, against
// an implementation that hashes every (agg, group) and sorts the groups out
// of a map.

type refKey struct {
	agg   query.Agg
	group int64
}

type refPartial struct {
	sum, min, max float64
	count         int64
}

type refAcc struct{ parts map[refKey]*refPartial }

func (a *refAcc) Add(results []query.AggResult) {
	if a.parts == nil {
		a.parts = make(map[refKey]*refPartial, len(results))
	}
	for _, r := range results {
		k := refKey{r.Agg, r.Group}
		p := a.parts[k]
		if p == nil {
			p = &refPartial{min: math.Inf(1), max: math.Inf(-1)}
			a.parts[k] = p
		}
		if r.Empty {
			continue
		}
		p.count++
		p.sum += r.Value
		p.min = math.Min(p.min, r.Value)
		p.max = math.Max(p.max, r.Value)
	}
}

func (a *refAcc) Finish(at sim.Time, want []query.Agg) []query.AggResult {
	groupSet := make(map[int64]bool, 4)
	for k := range a.parts {
		groupSet[k.group] = true
	}
	groups := SortedKeys(groupSet)

	out := make([]query.AggResult, 0, len(want)*len(groups))
	for _, ag := range want {
		for _, g := range groups {
			r := query.AggResult{Time: at, Agg: ag, Group: g}
			pt := a.parts[refKey{ag, g}]
			switch {
			case ag.Op == query.Avg && pt == nil:
				sum := a.parts[refKey{query.Agg{Op: query.Sum, Attr: ag.Attr}, g}]
				cnt := a.parts[refKey{query.Agg{Op: query.Count, Attr: ag.Attr}, g}]
				if sum == nil || cnt == nil || cnt.count == 0 || cnt.sum == 0 {
					r.Empty = true
				} else {
					r.Value = sum.sum / cnt.sum
				}
			case pt == nil || pt.count == 0:
				r.Empty = true
			case ag.Op == query.Min:
				r.Value = pt.min
			case ag.Op == query.Max:
				r.Value = pt.max
			case ag.Op == query.Avg:
				r.Value = pt.sum / float64(pt.count)
			default: // SUM, COUNT
				r.Value = pt.sum
			}
			out = append(out, r)
		}
	}
	return out
}

// sameBits reports whether two result lists are identical down to the bit
// pattern of every value (== would let -0 pass for 0 and fail NaN).
func sameBits(a, b []query.AggResult) bool {
	return slices.EqualFunc(a, b, func(x, y query.AggResult) bool {
		return x.Time == y.Time && x.Agg == y.Agg && x.Group == y.Group && x.Empty == y.Empty &&
			math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// TestAccMatchesReference folds random partitions through the flat Acc and
// the map-based reference and asserts bit-equal results: GROUP BY buckets
// (more of them than the inline room holds), pieces that report a bucket
// Empty or not at all, AVG rebuilt from SUM+COUNT and AVG passed through
// undivided, MIN/MAX, the pieces added in a random order, and the same Acc
// reused across cases through Reset.
func TestAccMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	attrs := []field.Attr{field.AttrLight, field.AttrTemp}
	ops := []query.AggOp{query.Sum, query.Count, query.Min, query.Max, query.Avg}
	var acc Acc // one accumulator for every case: Reset must leave nothing behind
	for c := 0; c < 4000; c++ {
		var want []query.Agg
		for n := 1 + rng.Intn(4); n > 0; n-- {
			want = append(want, query.Agg{Op: ops[rng.Intn(len(ops))], Attr: attrs[rng.Intn(len(attrs))]})
		}
		// Half the cases stream the basis (AVG rebuilt from SUM+COUNT), half
		// the list as asked (an undivided query's AVG folds as itself).
		streamed := want
		if rng.Intn(2) == 0 {
			streamed = Basis(want)
		}
		groups := []int64{0}
		if rng.Intn(2) == 0 {
			groups = groups[:0]
			for n := 1 + rng.Intn(7); n > 0; n-- {
				groups = append(groups, int64(rng.Intn(9)-2))
			}
		}
		pieces := make([][]query.AggResult, 1+rng.Intn(6))
		for i := range pieces {
			for _, ag := range streamed {
				for _, g := range groups {
					switch rng.Intn(8) {
					case 0: // this piece never saw the bucket
					case 1:
						pieces[i] = append(pieces[i], query.AggResult{Agg: ag, Group: g, Empty: true})
					default:
						v := rng.NormFloat64() * 1e3
						if ag.Op == query.Count {
							v = float64(rng.Intn(40))
						}
						pieces[i] = append(pieces[i], query.AggResult{Agg: ag, Group: g, Value: v})
					}
				}
			}
		}
		rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })

		acc.Reset()
		var ref refAcc
		for _, p := range pieces {
			acc.Add(p)
			ref.Add(p)
		}
		at := sim.Time(c)
		if got, exp := acc.Finish(at, want), ref.Finish(at, want); !sameBits(got, exp) {
			t.Fatalf("case %d: want %v over pieces %v\nflat      %+v\nreference %+v", c, want, pieces, got, exp)
		}
	}
}

// TestAccAllocs pins the accumulator's allocation cost: folding a piece into
// the inline room allocates nothing, and Finish allocates the result slice
// it hands out and nothing else.
func TestAccAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sum := query.Agg{Op: query.Sum, Attr: field.AttrLight}
	cnt := query.Agg{Op: query.Count, Attr: field.AttrLight}
	avg := query.Agg{Op: query.Avg, Attr: field.AttrLight}
	mx := query.Agg{Op: query.Max, Attr: field.AttrTemp}
	piece := []query.AggResult{{Agg: sum, Value: 12.5}, {Agg: cnt, Value: 3}, {Agg: mx, Value: 7}, {Agg: mx, Group: 1, Value: 9}}
	want := []query.Agg{sum, cnt, avg, mx}
	var acc Acc
	if n := testing.AllocsPerRun(200, func() {
		acc.Reset()
		acc.Add(piece)
		acc.Add(piece)
	}); n != 0 {
		t.Errorf("Acc.Add within the inline room: %v allocs per epoch, want 0", n)
	}
	var out []query.AggResult
	if n := testing.AllocsPerRun(200, func() { out = acc.Finish(0, want) }); n != 1 {
		t.Errorf("Acc.Finish: %v allocs, want 1 (the result slice)", n)
	}
	if len(out) != 2*len(want) {
		t.Fatalf("Finish returned %d results, want %d", len(out), 2*len(want))
	}
}
