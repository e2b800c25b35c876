package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/topology"
)

// ShareStudyConfig parametrizes the cross-query sharing study: a fixed
// subscriber population whose region queries are swept across overlap
// factors, each cell run twice — straight against the gateway (tier-1
// exact dedup only) and through the `internal/share` coordinator
// (fragment CSE + windowed result cache). The study reports injected
// tier-1 radio messages and cold vs late-subscriber time-to-first-result.
type ShareStudyConfig struct {
	Seed int64
	// Overlaps lists the swept overlap factors in [0,1] (default 0, 0.25,
	// 0.5, 0.75). The factor controls how much the subscriber regions
	// coincide: at 0 every query is a single grid cell (a fragment IS a
	// query, so the sharing layer can only tie the baseline), and rising
	// f widens regions over the same cell space so many distinct queries
	// collapse onto few shared fragments.
	Overlaps []float64
	// Side is the grid side (default 7 — 48 sensors).
	Side int
	// Cell is the fragment alignment grid (default share.DefaultCell).
	Cell int
	// Queries is the cold subscriber population (default 12); Late is the
	// late-joiner population re-subscribing the same queries after the
	// warm-up (default 8).
	Queries int
	Late    int
	// Quantum is virtual time per drain round (default 1024ms); EpochMS
	// the query epoch (default 8192) — the gap between them is what the
	// warm cache erases from late-subscriber TTFR.
	Quantum time.Duration
	EpochMS int64
	// WarmRounds runs between the last cold subscribe and the first late
	// one (default 24 — three epochs, enough to fill the result window);
	// Rounds measures after the late joiners (default 24).
	WarmRounds int
	Rounds     int
}

func (c *ShareStudyConfig) setDefaults() {
	if len(c.Overlaps) == 0 {
		c.Overlaps = []float64{0, 0.25, 0.5, 0.75}
	}
	if c.Side <= 0 {
		c.Side = 7
	}
	if c.Cell <= 0 {
		c.Cell = share.DefaultCell
	}
	if c.Queries <= 0 {
		c.Queries = 12
	}
	if c.Late <= 0 {
		c.Late = 8
	}
	if c.Quantum <= 0 {
		c.Quantum = 1024 * time.Millisecond
	}
	if c.EpochMS <= 0 {
		c.EpochMS = 8192
	}
	if c.WarmRounds <= 0 {
		c.WarmRounds = 24
	}
	if c.Rounds <= 0 {
		c.Rounds = 24
	}
}

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
	cfg.setDefaults()
	rows := make([]ShareStudyRow, 0, 2*len(cfg.Overlaps))
	for _, f := range cfg.Overlaps {
		for _, sharing := range []bool{false, true} {
			row, err := runShareCell(cfg, f, sharing)
			if err != nil {
				return nil, fmt.Errorf("share study, overlap %.2f sharing %v: %w", f, sharing, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// shareSub is a pending-then-live subscription, on the raw gateway or on
// the coordinator: both serve the kernel's sessions.
type shareSub struct {
	tk      *gateway.Ticket
	updates <-chan gateway.Update // nil until the ticket resolved
	subAt   sim.Time
	firstAt sim.Time
	seen    bool
}

func runShareCell(cfg ShareStudyConfig, overlap float64, sharing bool) (ShareStudyRow, error) {
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return ShareStudyRow{}, err
	}
	st, err := stack.Build(stack.Spec{
		Share:   sharing,
		Gateway: gateway.Config{Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: cfg.Seed}},
		Coord:   share.Config{Cell: cfg.Cell},
	})
	if err != nil {
		return ShareStudyRow{}, err
	}
	defer st.Close()
	gw, top := st.Gateway(), st.Top()
	now := gw.Now // the coordinator's clock is its upstream's

	// The subscriber population: cell-aligned regions whose width grows
	// with the overlap factor. The same list serves both modes, and late
	// joiner j re-issues query j's text verbatim.
	texts := shareQuerySet(cfg, overlap, st.Sensors())
	subscribe := func(name string, i int) (*shareSub, error) {
		q := query.MustParse(texts[i%len(texts)])
		at, err := now()
		if err != nil {
			return nil, err
		}
		sess, err := top.Register(name)
		if err != nil {
			return nil, err
		}
		tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: q})
		if err != nil {
			return nil, err
		}
		return &shareSub{tk: tk, subAt: at}, nil
	}

	var subs []*shareSub
	var updates int64
	drain := func() error {
		at, err := now()
		if err != nil {
			return err
		}
		for _, s := range subs {
			if s.updates == nil {
				sub, err := s.tk.Wait()
				if err != nil {
					return err
				}
				s.updates = sub.Updates()
			}
			for {
				select {
				case _, ok := <-s.updates:
					if !ok {
						return fmt.Errorf("subscription closed mid-study")
					}
					updates++
					if !s.seen {
						s.seen = true
						s.firstAt = at
					}
					continue
				default:
				}
				break
			}
		}
		return nil
	}
	step := func() error {
		if _, err := top.Advance(cfg.Quantum); err != nil {
			return err
		}
		return drain()
	}

	// Cold population, staggered one per round so TTFR samples cover the
	// epoch phase space.
	cold := make([]*shareSub, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		s, err := subscribe(fmt.Sprintf("cold-%d", i), i)
		if err != nil {
			return ShareStudyRow{}, err
		}
		cold = append(cold, s)
		subs = append(subs, s)
		if err := step(); err != nil {
			return ShareStudyRow{}, err
		}
	}
	for r := 0; r < cfg.WarmRounds; r++ {
		if err := step(); err != nil {
			return ShareStudyRow{}, err
		}
	}

	// Late joiners re-subscribe the cold queries, also staggered.
	late := make([]*shareSub, 0, cfg.Late)
	for i := 0; i < cfg.Late; i++ {
		s, err := subscribe(fmt.Sprintf("late-%d", i), i%cfg.Queries)
		if err != nil {
			return ShareStudyRow{}, err
		}
		late = append(late, s)
		subs = append(subs, s)
		if err := step(); err != nil {
			return ShareStudyRow{}, err
		}
	}
	for r := 0; r < cfg.Rounds; r++ {
		if err := step(); err != nil {
			return ShareStudyRow{}, err
		}
	}

	exp, err := gw.Export()
	if err != nil {
		return ShareStudyRow{}, err
	}
	gst, err := gw.Stats()
	if err != nil {
		return ShareStudyRow{}, err
	}
	row := ShareStudyRow{
		Overlap:  overlap,
		Sharing:  sharing,
		Queries:  cfg.Queries + cfg.Late,
		Upstream: gst.Admitted,
		Messages: int64(exp.Metrics.Messages),
		Updates:  updates,
	}
	row.ColdTTFR50MS, row.ColdTTFR95MS = ttfrPercentiles(cold)
	row.LateTTFR50MS, row.LateTTFR95MS = ttfrPercentiles(late)
	if st.Coord != nil {
		s := st.Coord.ShareStats()
		row.FragmentReuse = s.FragmentReuseRatio()
		row.CacheHitRatio = s.CacheHitRatio()
	}
	return row, nil
}

// shareQuerySet builds the cell-aligned subscriber regions for one
// overlap factor. Every query spans whole cells, so the decomposition is
// residual-free and the comparison isolates cross-query sharing: at f=0
// each query is one cell (fragments and queries coincide), while rising f
// draws wider multi-cell regions over the same space — many distinct
// query forms whose cells coincide, which exact dedup cannot collapse but
// fragment CSE can.
func shareQuerySet(cfg ShareStudyConfig, overlap float64, sensors int) []string {
	cells := sensors / cfg.Cell
	maxW := 1 + int(math.Round(overlap*3))
	if maxW > cells {
		maxW = cells
	}
	rng := sim.NewRand(cfg.Seed).Fork(int64(math.Round(overlap * 100)))
	texts := make([]string, 0, cfg.Queries)
	for i := 0; i < cfg.Queries; i++ {
		w := 1 + rng.Intn(maxW)
		s := rng.Intn(cells - w + 1)
		lo, hi := 1+s*cfg.Cell, (s+w)*cfg.Cell
		texts = append(texts, fmt.Sprintf(
			"SELECT SUM(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %d",
			lo, hi, cfg.EpochMS))
	}
	return texts
}

// ttfrPercentiles summarizes subscribe→first-result gaps in virtual ms.
func ttfrPercentiles(subs []*shareSub) (p50, p95 float64) {
	var ms []float64
	for _, s := range subs {
		if s.seen {
			ms = append(ms, float64((s.firstAt-s.subAt)/time.Millisecond))
		}
	}
	if len(ms) == 0 {
		return 0, 0
	}
	sort.Float64s(ms)
	pick := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(ms)))) - 1
		if i < 0 {
			i = 0
		}
		return ms[i]
	}
	return pick(0.50), pick(0.95)
}

// ShareStudyString renders the study as a text table, pairing each
// overlap factor's off/on cells.
func ShareStudyString(rows []ShareStudyRow) string {
	out := fmt.Sprintf("%7s %7s %8s %9s %11s %11s %11s %11s %7s %7s\n",
		"overlap", "sharing", "upstream", "messages",
		"cold50(ms)", "cold95(ms)", "late50(ms)", "late95(ms)", "reuse", "cachehit")
	for _, r := range rows {
		mode := "off"
		if r.Sharing {
			mode = "on"
		}
		out += fmt.Sprintf("%7.2f %7s %8d %9d %11.0f %11.0f %11.0f %11.0f %7.2f %7.2f\n",
			r.Overlap, mode, r.Upstream, r.Messages,
			r.ColdTTFR50MS, r.ColdTTFR95MS, r.LateTTFR50MS, r.LateTTFR95MS,
			r.FragmentReuse, r.CacheHitRatio)
	}
	return out
}
