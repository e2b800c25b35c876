package tier

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

// The partial-aggregate algebra: a region query is answered by splitting
// its sensor-id range into pieces (shard slices, grid cells), streaming the
// basis aggregates of every piece, and folding the pieces' partials back
// into the query's own aggregate list. AggResult carries only final values,
// so AVG is not recombinable from AVG partials: pieces stream SUM+COUNT
// instead and Finish rebuilds AVG = ΣSUM/ΣCOUNT. SUM and COUNT add, MIN and
// MAX fold. The defining property — Finish over any partition equals direct
// evaluation over the whole region — is what lets a composed tier return
// the same answers as a bare gateway.

// Range is an inclusive range of global sensor ids.
type Range struct{ Lo, Hi int }

// Len is the number of ids in the range.
func (r Range) Len() int { return r.Hi - r.Lo + 1 }

// Region clips q's nodeid predicate to the deployment's sensor ids
// 1..sensors (the whole deployment without one). A region holding no sensor
// is an error in every tier: a composed tier never acks a query it cannot
// answer.
func Region(q query.Query, sensors int) (Range, error) {
	r := Range{1, sensors}
	if pred, ok := q.PredFor(field.AttrNodeID); ok {
		// Clip in float64: a bound such as 1e300 is out of int range, and
		// only after the clip do both bounds lie in 1..sensors.
		lo := math.Ceil(math.Max(pred.Min, 1))
		hi := math.Floor(math.Min(pred.Max, float64(sensors)))
		if !(lo <= hi) {
			return r, fmt.Errorf("tier: nodeid predicate %s selects no sensor (global sensors are 1..%d)",
				pred.String(), sensors)
		}
		r.Lo, r.Hi = int(lo), int(hi)
	}
	return r, nil
}

// Split cuts r at the boundaries of width-aligned blocks (block b holds ids
// b*width+1 .. (b+1)*width): the pieces are disjoint, ascending and cover r
// exactly. Piece i lies in block (pieces[i].Lo-1)/width.
func Split(r Range, width int) []Range {
	var out []Range
	for lo := r.Lo; lo <= r.Hi; {
		hi := min(((lo-1)/width+1)*width, r.Hi)
		out = append(out, Range{lo, hi})
		lo = hi + 1
	}
	return out
}

// Basis rewrites an aggregate list into the one every piece streams: each
// AVG(x) becomes SUM(x)+COUNT(x), deduplicated against explicit SUMs and
// COUNTs, order otherwise preserved.
func Basis(aggs []query.Agg) []query.Agg {
	out := make([]query.Agg, 0, len(aggs)+2)
	seen := make(map[query.Agg]bool, len(aggs)+2)
	add := func(a query.Agg) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, a := range aggs {
		if a.Op == query.Avg {
			add(query.Agg{Op: query.Sum, Attr: a.Attr})
			add(query.Agg{Op: query.Count, Attr: a.Attr})
		} else {
			add(a)
		}
	}
	return out
}

// Piece is q restricted to the sensor ids r of an id space 1..whole,
// streaming aggs: the nodeid predicate is replaced by r, and dropped when r
// covers the whole space so equal-coverage queries share one canonical
// form. Lifetime is cleared — the tier owns the piece's lifecycle.
func Piece(q query.Query, aggs []query.Agg, r Range, whole int) query.Query {
	p := q.Clone()
	p.Aggs = append([]query.Agg(nil), aggs...)
	p.Lifetime = 0
	preds := p.Preds[:0]
	for _, pr := range p.Preds {
		if pr.Attr != field.AttrNodeID {
			preds = append(preds, pr)
		}
	}
	if r.Lo > 1 || r.Hi < whole {
		preds = append(preds, query.Predicate{Attr: field.AttrNodeID, Min: float64(r.Lo), Max: float64(r.Hi)})
	}
	p.Preds = preds
	return p.Normalize()
}

// partial folds the pieces' results of one (agg, group).
type partial struct {
	agg           query.Agg
	group         int64
	sum, min, max float64
	count         int64 // contributing non-empty partials
}

// accInline is how many (agg, group) partials an Acc holds without
// allocating: a region aggregate's basis is two or three, ungrouped.
const accInline = 4

// Acc accumulates one epoch's partial aggregates across pieces. The zero
// value is ready; partials fold in the order they are added, which is the
// order float sums associate in. The partials sit in a slice searched
// linearly — inline up to accInline of them — so an Acc must not be copied
// once used; Reset empties it for the next epoch.
type Acc struct {
	parts  []partial
	inline [accInline]partial
}

// Reset empties the accumulator, keeping its storage.
func (a *Acc) Reset() { a.parts = a.parts[:0] }

func (a *Acc) find(ag query.Agg, group int64) *partial {
	for i := range a.parts {
		if p := &a.parts[i]; p.agg == ag && p.group == group {
			return p
		}
	}
	return nil
}

// Add folds one piece's aggregate results in.
func (a *Acc) Add(results []query.AggResult) {
	if a.parts == nil {
		a.parts = a.inline[:0]
	}
	for _, r := range results {
		p := a.find(r.Agg, r.Group)
		if p == nil {
			a.parts = append(a.parts, partial{agg: r.Agg, group: r.Group, min: math.Inf(1), max: math.Inf(-1)})
			p = &a.parts[len(a.parts)-1]
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

// Finish recombines the accumulated partials into the aggregate list want,
// ordered by (agg position, group); a bucket no piece had a value for is
// Empty, never 0. An AVG rebuilds from its SUM/COUNT basis; where a piece
// streamed AVG itself (an undivided query, never rewritten by Basis) the
// fold of that one partial is the identity.
func (a *Acc) Finish(at sim.Time, want []query.Agg) []query.AggResult {
	var buf [accInline]int64
	groups := buf[:0]
	for i := range a.parts {
		if g := a.parts[i].group; !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}
	slices.Sort(groups)

	out := make([]query.AggResult, 0, len(want)*len(groups))
	for _, ag := range want {
		for _, g := range groups {
			r := query.AggResult{Time: at, Agg: ag, Group: g}
			pt := a.find(ag, g)
			switch {
			case ag.Op == query.Avg && pt == nil:
				sum := a.find(query.Agg{Op: query.Sum, Attr: ag.Attr}, g)
				cnt := a.find(query.Agg{Op: query.Count, Attr: ag.Attr}, g)
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
