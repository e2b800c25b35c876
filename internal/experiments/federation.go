package experiments

import (
	"fmt"

	"repro/internal/chaos"
)

// FederationScalingConfig parametrizes the shard-count scaling study: a
// fixed per-shard world and subscriber load, swept over fleet sizes.
// Delivered updates grow exactly with the shard count. Each cell is a chaos
// drill (chaos.FederationCell), so its streams pass the runner's duplicate,
// gap, ordering and goroutine-leak checks.
type FederationScalingConfig struct {
	Seed int64
}

// federationShards are the swept fleet sizes.
var federationShards = []int{1, 2, 4, 8}

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
	rows := make([]FederationScalingRow, 0, len(federationShards))
	for _, k := range federationShards {
		rep, err := chaos.FederationCell(cfg.Seed, k)
		if err == nil {
			err = violations(rep)
		}
		if err != nil {
			return nil, fmt.Errorf("federation scaling, %d shards: %w", k, err)
		}
		st := rep.Router
		rows = append(rows, FederationScalingRow{
			Shards:         k,
			Sensors:        rep.Sensors,
			Sessions:       rep.Clients,
			Subs:           int(st.Subscribes),
			Trees:          st.Trees,
			Upstreams:      st.UpstreamSubs,
			Updates:        rep.Updates,
			Rows:           rep.Rows,
			MergedEpochs:   st.MergedEpochs,
			PartialUpdates: st.PartialUpdates,
		})
	}
	return rows, nil
}
