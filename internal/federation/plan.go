package federation

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/tier"
	"repro/internal/topology"
)

// The planner splits one downstream query into per-shard upstream queries
// and describes how to recombine their partial results.
//
// Region model: shard s simulates its own PaperGrid whose sensors carry
// local ids 1..spn (node 0 is the shard's base station and never samples).
// Globally the field is the concatenation of the shards, so shard s owns
// global sensor ids [s*spn+1, (s+1)*spn]. A query's nodeid predicate is
// expressed in global ids; the planner intersects it with each shard's
// slice and rewrites it into local coordinates, dropping the shards it
// misses entirely. Result rows travel back in local ids and are translated
// to global ones at the merge.
//
// Aggregates: every slice streams the query's basis aggregates and the
// merger folds the partials back (tier.Basis / tier.Acc). nodeid itself
// cannot be aggregated or grouped across shards (local ids would recombine
// into nonsense), so the planner rejects those queries up front.

// shardSlice is one shard's view of a planned query.
type shardSlice struct {
	shard int
	q     query.Query // upstream query, nodeid predicate in local coordinates
}

// plan is the routing decision for one canonical downstream query.
type plan struct {
	q      query.Query  // normalized downstream query
	agg    bool         // aggregation (recombine) vs acquisition (concatenate)
	slices []shardSlice // intersecting shards, ascending shard index
	shards []int        // slices[i].shard, for the per-epoch release walk
}

// planQuery splits the canonical query n (gateway.Canonicalize) across K
// shards of spn sensors each.
func planQuery(n query.Query, shards, spn int) (*plan, error) {
	if n.GroupBy != nil && n.GroupBy.Attr == field.AttrNodeID {
		return nil, fmt.Errorf("federation: GROUP BY nodeid is not federatable (shard-local ids)")
	}
	for _, a := range n.Aggs {
		if a.Attr == field.AttrNodeID {
			return nil, fmt.Errorf("federation: %s(nodeid) is not federatable (shard-local ids)", a.Op)
		}
	}
	for _, w := range n.Wins {
		if w.Attr == field.AttrNodeID {
			return nil, fmt.Errorf("federation: windowed nodeid is not federatable (shard-local ids)")
		}
	}
	region, err := tier.Region(n, shards*spn)
	if err != nil {
		return nil, err
	}
	p := &plan{q: n, agg: n.IsAggregation()}
	upAggs := n.Aggs
	if p.agg {
		upAggs = tier.Basis(n.Aggs)
	}
	// One slice per shard the region touches, its range shifted into the
	// shard's local coordinates.
	for _, r := range tier.Split(region, spn) {
		s := (r.Lo - 1) / spn
		local := tier.Range{Lo: r.Lo - s*spn, Hi: r.Hi - s*spn}
		p.slices = append(p.slices, shardSlice{shard: s, q: tier.Piece(n, upAggs, local, spn)})
		p.shards = append(p.shards, s)
	}
	return p, nil
}

// translateRows maps one shard's result rows into global coordinates,
// appending to dst. Both the row's node id and a projected nodeid value
// shift by the shard's base offset.
func translateRows(dst []query.Row, rows []query.Row, shard, spn int) []query.Row {
	base := shard * spn
	for _, r := range rows {
		g := r
		g.Node = r.Node + topology.NodeID(base)
		if v, ok := r.Values.Get(field.AttrNodeID); ok {
			g.Values.Set(field.AttrNodeID, v+float64(base))
		}
		dst = append(dst, g)
	}
	return dst
}
