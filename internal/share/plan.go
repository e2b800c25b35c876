// Package share is the tier-2 cross-query sharing layer: partial-aggregate
// common-subexpression elimination plus a windowed result cache, sitting
// between the gateway's semantic dedup cache and the in-network optimizer.
//
// TTMQO itself only shares work when one query's region and epoch contain
// another's. This layer goes further: it decomposes each live query's
// region×attribute×aggregate into grid-aligned fragments, keeps a
// refcounted registry of materialized fragments across the whole live
// query set, and plans every new query as a composition of fragments that
// already stream plus a minimal residual — only the residual reaches the
// optimizer and pays a network flood. Fragment streams are recombined per
// epoch with the partial-aggregate algebra the federation merger also uses
// (tier.Basis / tier.Acc) to synthesize each subscriber's answer.
package share

import (
	"cmp"
	"slices"

	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/tier"
)

// fragQuery is one shareable fragment: a grid-aligned (or edge-residual)
// sub-region of a query, carrying the query's basis aggregate list.
type fragQuery struct {
	q   query.Query
	key string // canonical key of q; the registry identity
}

// sharePlan is the decomposition of one canonical downstream query.
type sharePlan struct {
	q   query.Query // canonical downstream form
	key string      // its canonical key (gateway.Canonicalize)
	agg bool        // aggregation (recombine) vs acquisition (concatenate)
	// passthrough: the query could not be decomposed (GROUP BY or windowed
	// aggregates); it rides as a single exact fragment, still deduplicated
	// and cached by key.
	passthrough bool
	frags       []fragQuery
}

// planShare canonicalizes q and decomposes it into cell-aligned fragments
// over the sensor id space 1..sensors. Interior cells are aligned to
// multiples of cell so overlapping queries decompose into byte-identical
// fragment keys; the edges keep exact residual ranges so the fragment set
// partitions the query's node set exactly (required for aggregate
// correctness — every sensor is counted once).
func planShare(q query.Query, sensors, cell int) (*sharePlan, error) {
	n, key, err := gateway.Canonicalize(q)
	if err != nil {
		return nil, err
	}
	p := &sharePlan{q: n, key: key, agg: n.IsAggregation()}

	// GROUP BY buckets and windowed aggregates are not decomposable into
	// region partials here (group keys and window states live inside the
	// network); they pass through whole but still share by canonical key.
	if n.GroupBy != nil || len(n.Wins) > 0 {
		p.passthrough = true
		p.frags = []fragQuery{{q: n.Clone(), key: key}}
		return p, nil
	}

	// The queried sensor ids, clipped to the deployment.
	region, err := tier.Region(n, sensors)
	if err != nil {
		return nil, err
	}
	upAggs := n.Aggs
	if p.agg {
		upAggs = tier.Basis(n.Aggs)
	}
	// Cut at the cell grid: interior cells are whole, the edges keep exact
	// residual ranges. A region holding no whole cell stays one fragment.
	pieces := tier.Split(region, cell)
	if len(pieces) == 2 && pieces[0].Len() < cell && pieces[1].Len() < cell {
		pieces = []tier.Range{region}
	}
	for _, r := range pieces {
		f := tier.Piece(n, upAggs, r, sensors)
		p.frags = append(p.frags, fragQuery{q: f, key: f.String()})
	}
	return p, nil
}

// finish recombines a complete epoch's fragments into the downstream
// query's shape: rows sorted by node id, aggregates in the query's canonical
// agg order with AVG rebuilt from its SUM/COUNT basis. The epoch is recycled
// afterwards, so nothing of it is handed out.
func (p *sharePlan) finish(e *tier.Epoch) cachedEpoch {
	out := cachedEpoch{at: e.At, degraded: e.Degraded, coverage: e.Coverage(), shards: e.Shards}
	if len(e.Rows) > 0 {
		out.rows = append([]query.Row(nil), e.Rows...)
		slices.SortStableFunc(out.rows, func(a, b query.Row) int { return cmp.Compare(a.Node, b.Node) })
	}
	if p.agg {
		out.aggs = e.Finish(e.At, p.q.Aggs)
	}
	return out
}
