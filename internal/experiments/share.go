package experiments

import (
	"fmt"
	"strings"

	"repro/internal/chaos"
)

// ShareStudyConfig parametrizes the cross-query sharing study: a fixed
// subscriber population whose region queries are swept across overlap
// factors, each cell run twice — straight against the gateway (tier-1
// exact dedup only) and through the `internal/share` coordinator
// (fragment CSE + windowed result cache). The study reports injected
// tier-1 radio messages and cold vs late-subscriber time-to-first-result.
// Each cell is a chaos drill (chaos.ShareCell), so its streams pass the
// runner's duplicate, gap, ordering and goroutine-leak checks.
type ShareStudyConfig struct {
	Seed int64
}

// shareOverlaps are the swept overlap factors. The factor controls how much
// the subscriber regions coincide: at 0 every query is a single grid cell
// (a fragment IS a query, so the sharing layer can only tie the baseline),
// and rising f widens regions over the same cell space so many distinct
// queries collapse onto few shared fragments.
var shareOverlaps = []float64{0, 0.25, 0.5, 0.75}

// ShareStudyRow is one (overlap, sharing) cell. Everything here is a
// deterministic function of configuration and seed — virtual time only.
type ShareStudyRow struct {
	Overlap float64 `json:"overlap"`
	Sharing bool    `json:"sharing"`
	Queries int     `json:"queries"`
	// Upstream is the number of distinct queries admitted into the
	// network: exact-dedup survivors without sharing, fragments with.
	Upstream int64 `json:"upstream"`
	// Messages is the injected tier-1 radio message total for the run.
	Messages int64 `json:"messages"`
	// ColdTTFR*: virtual ms from subscribe to first result for the cold
	// population. LateTTFR*: same for the late joiners — with sharing on,
	// the windowed cache replays immediately instead of waiting out an
	// epoch.
	ColdTTFR50MS float64 `json:"cold_ttfr50_ms"`
	ColdTTFR95MS float64 `json:"cold_ttfr95_ms"`
	LateTTFR50MS float64 `json:"late_ttfr50_ms"`
	LateTTFR95MS float64 `json:"late_ttfr95_ms"`
	// FragmentReuse and CacheHitRatio are zero without sharing.
	FragmentReuse float64 `json:"fragment_reuse_ratio"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	Updates       int64   `json:"updates"`
}

// RunShareStudy sweeps overlap factors × sharing on/off.
func RunShareStudy(cfg ShareStudyConfig) ([]ShareStudyRow, error) {
	rows := make([]ShareStudyRow, 0, 2*len(shareOverlaps))
	for _, f := range shareOverlaps {
		for _, sharing := range []bool{false, true} {
			rep, err := chaos.ShareCell(cfg.Seed, f, sharing)
			if err == nil {
				err = violations(rep)
			}
			if err != nil {
				return nil, fmt.Errorf("share study, overlap %.2f sharing %v: %w", f, sharing, err)
			}
			row := ShareStudyRow{
				Overlap:      f,
				Sharing:      sharing,
				Queries:      rep.Clients,
				Upstream:     rep.Gateway.Admitted,
				Messages:     rep.Messages,
				ColdTTFR50MS: rep.ColdTTFR50MS,
				ColdTTFR95MS: rep.ColdTTFR95MS,
				LateTTFR50MS: rep.LateTTFR50MS,
				LateTTFR95MS: rep.LateTTFR95MS,
				Updates:      rep.Updates,
			}
			if rep.Share != nil {
				row.FragmentReuse = rep.Share.FragmentReuseRatio()
				row.CacheHitRatio = rep.Share.CacheHitRatio()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// violations fails a study cell whose drill saw its stack break a delivery
// invariant.
func violations(rep *chaos.Report) error {
	if len(rep.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("%d violation(s): %s", len(rep.Violations), strings.Join(rep.Violations, "; "))
}
