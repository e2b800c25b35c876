package experiments

import (
	"fmt"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/stack"
)

// FederationScalingConfig parametrizes the shard-count scaling study: a
// fixed per-shard world and subscriber load, swept over fleet sizes.
// Delivered updates grow exactly with the shard count.
type FederationScalingConfig struct {
	Seed int64
	// Shards lists the fleet sizes swept (default 1, 2, 4, 8).
	Shards []int
	// Side is each shard's grid side (default 3 — 8 sensors per shard).
	Side int
	// SubsPerShard is the number of downstream sessions added per shard,
	// holding per-shard load constant across the sweep (default 4).
	SubsPerShard int
	// Quantum is the virtual time per round; queries use it as their epoch
	// duration (default 8192ms, the serving tier's default).
	Quantum time.Duration
	// Rounds is the number of advance/drain rounds measured (default 8).
	Rounds int
}

func (c *FederationScalingConfig) setDefaults() {
	if len(c.Shards) == 0 {
		c.Shards = []int{1, 2, 4, 8}
	}
	if c.Side <= 0 {
		c.Side = 3
	}
	if c.SubsPerShard <= 0 {
		c.SubsPerShard = 4
	}
	if c.Quantum <= 0 {
		c.Quantum = 8192 * time.Millisecond
	}
	if c.Rounds <= 0 {
		c.Rounds = 8
	}
}

// FederationScalingRow is one fleet-size cell, a deterministic function of
// configuration and seed.
type FederationScalingRow struct {
	Shards   int `json:"shards"`
	Sensors  int `json:"sensors"`
	Sessions int `json:"sessions"`
	Subs     int `json:"subs"`
	Trees    int `json:"trees"`
	// Upstreams is the canonical shard-side subscription count after dedup.
	Upstreams int `json:"upstreams"`
	// Updates/Rows are downstream deliveries over the measured rounds;
	// PartialUpdates the per-shard partials they were merged from.
	Updates        int64 `json:"updates"`
	Rows           int64 `json:"rows"`
	MergedEpochs   int64 `json:"merged_epochs"`
	PartialUpdates int64 `json:"partial_updates"`
}

// RunFederationScaling sweeps fleet sizes. Every session subscribes to its
// shard's full-region acquisition (deduped to one canonical upstream per
// shard) plus a cross-shard recombining aggregate, so per-shard load is
// constant and total subscriber deliveries scale with the fleet.
func RunFederationScaling(cfg FederationScalingConfig) ([]FederationScalingRow, error) {
	cfg.setDefaults()
	rows := make([]FederationScalingRow, 0, len(cfg.Shards))
	for _, k := range cfg.Shards {
		row, err := runFederationCell(cfg, k)
		if err != nil {
			return nil, fmt.Errorf("federation scaling, %d shards: %w", k, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFederationCell(cfg FederationScalingConfig, shards int) (FederationScalingRow, error) {
	built, err := stack.Build(stack.Spec{Shards: shards, Router: federation.Config{Side: cfg.Side, Seed: cfg.Seed}})
	if err != nil {
		return FederationScalingRow{}, err
	}
	defer built.Close()
	rt := built.Router

	spn := built.Sensors() / shards
	epochMS := int64(cfg.Quantum / time.Millisecond)
	agg := query.MustParse(fmt.Sprintf("SELECT MAX(light), AVG(light) EPOCH DURATION %d", epochMS))
	var tickets []*federation.Ticket
	for i := 0; i < shards*cfg.SubsPerShard; i++ {
		sess, err := rt.Register(fmt.Sprintf("fed-%d", i))
		if err != nil {
			return FederationScalingRow{}, err
		}
		base := (i % shards) * spn
		region := query.MustParse(fmt.Sprintf(
			"SELECT nodeid, light WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %d",
			base+1, base+spn, epochMS))
		for _, q := range []query.Query{region, agg} {
			tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: q})
			if err != nil {
				return FederationScalingRow{}, err
			}
			tickets = append(tickets, tk)
		}
	}
	if _, err := rt.Advance(cfg.Quantum); err != nil {
		return FederationScalingRow{}, err
	}
	subs := make([]*federation.Sub, 0, len(tickets))
	for _, tk := range tickets {
		sub, err := tk.Wait()
		if err != nil {
			return FederationScalingRow{}, err
		}
		subs = append(subs, sub)
	}

	var updates, rowCount int64
	drain := func(sub *federation.Sub) {
		for {
			select {
			case u := <-sub.Updates():
				updates++
				rowCount += int64(len(u.Rows))
			default:
				return
			}
		}
	}
	for round := 0; round < cfg.Rounds; round++ {
		if _, err := rt.Advance(cfg.Quantum); err != nil {
			return FederationScalingRow{}, err
		}
		for _, sub := range subs {
			drain(sub)
		}
	}
	st := rt.FedStats()
	return FederationScalingRow{
		Shards:         shards,
		Sensors:        built.Sensors(),
		Sessions:       shards * cfg.SubsPerShard,
		Subs:           len(subs),
		Trees:          st.Trees,
		Upstreams:      st.UpstreamSubs,
		Updates:        updates,
		Rows:           rowCount,
		MergedEpochs:   st.MergedEpochs,
		PartialUpdates: st.PartialUpdates,
	}, nil
}

// FederationScalingString renders the study as a text table.
func FederationScalingString(rows []FederationScalingRow) string {
	out := fmt.Sprintf("%6s %7s %8s %5s %5s %9s %8s %8s\n",
		"shards", "sensors", "sessions", "subs", "trees", "upstreams", "updates", "rows")
	for _, r := range rows {
		out += fmt.Sprintf("%6d %7d %8d %5d %5d %9d %8d %8d\n",
			r.Shards, r.Sensors, r.Sessions, r.Subs, r.Trees, r.Upstreams, r.Updates, r.Rows)
	}
	return out
}
