// Package cost implements the §3.1.2 cost model that guides the base-station
// query rewriter.
//
// The performance metric is the cost of radio transmission. For a query q
// with result-message length len(q), sending one message costs
// Cstart + Ctrans·len(q). The per-unit-time number of result messages a set
// N_k of nodes generates is
//
//	result(q, N_k) = sel(q, N_k) · |N_k| / epoch_q            (Eq. 1)
//
// and, with N_k the nodes at level k of the routing tree, the per-unit-time
// number of transmissions is
//
//	trans(q) = Σ_k result(q, N_k) · k                          (Eq. 2)
//
// for acquisition queries (each result is forwarded once per hop). For
// aggregation queries the true value lies in [result(q, N), trans(q)]
// depending on where in-network aggregation happens; following the paper we
// use the conservative lower bound result(q, N). Finally
//
//	cost(q) = trans(q) · (Cstart + Ctrans·len(q))              (Eq. 3)
//
// Costs are dimensionless: seconds of airtime per second of wall clock,
// summed over the network.
//
// Selectivity is estimated from per-attribute equi-width histograms under an
// attribute-independence assumption. As in the paper's experiments, a single
// distribution is shared by all levels of the routing tree.
package cost

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/query"
)

// Defaults for a mica2-class radio: 38.4 kbps ≈ 4.8 bytes/ms, and a couple
// of milliseconds of startup (preamble + MAC) per packet.
const (
	DefaultCstart = 2 * time.Millisecond
	// DefaultCtrans is the airtime per payload byte (the reciprocal of the
	// radio data rate, per §3.1.2's statistics discussion).
	DefaultCtrans = 208 * time.Microsecond
)

// Message length model, in bytes. A result message carries a TinyOS-like
// header plus per-item payload.
const (
	HeaderBytes      = 11 // radio header + origin id + epoch sequence
	BytesPerAttr     = 2  // one 16-bit reading per acquired attribute
	BytesPerAgg      = 5  // operator/attribute tag + 32-bit partial value
	BytesPerQueryTag = 1  // per-query tag in shared (packed) messages
)

// MsgLen returns len(q): the result-message length of a query in bytes.
func MsgLen(q query.Query) int {
	if q.IsAggregation() {
		return HeaderBytes + BytesPerAgg*len(q.Aggs)
	}
	if q.IsWindowed() {
		return HeaderBytes + BytesPerAttr*len(q.Wins)
	}
	return HeaderBytes + BytesPerAttr*len(q.Attrs)
}

// Histogram is an equi-width histogram over one attribute's value range,
// used to estimate predicate selectivity. A fresh histogram is uniform; it
// is refined with observed readings (the paper periodically maintains the
// data distribution; our simulations feed results back in) and decays old
// mass exponentially so the estimate tracks a drifting phenomenon rather
// than averaging over its whole history.
type Histogram struct {
	attr    field.Attr
	lo, hi  float64
	buckets []float64 // weights, not necessarily normalized
	total   float64
	// sinceDecay counts observations since the last decay; every
	// decayEvery observations all weights are halved (amortized O(1) per
	// observation).
	sinceDecay int
	decayEvery int
}

// decayEveryDefault balances responsiveness against estimate noise: with
// tens of nodes reporting a few attributes per epoch, the histogram's
// effective memory spans minutes of virtual time.
const decayEveryDefault = 4096

// NewHistogram returns a uniform histogram with the given bucket count over
// [lo, hi].
func NewHistogram(attr field.Attr, lo, hi float64, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	h := &Histogram{
		attr: attr, lo: lo, hi: hi,
		buckets:    make([]float64, buckets),
		decayEvery: decayEveryDefault,
	}
	for i := range h.buckets {
		h.buckets[i] = 1
	}
	h.total = float64(buckets)
	return h
}

// Observe folds one observed reading into the histogram with unit weight.
func (h *Histogram) Observe(v float64) {
	if h.hi <= h.lo {
		return
	}
	idx := int(float64(len(h.buckets)) * (v - h.lo) / (h.hi - h.lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	h.total++
	h.sinceDecay++
	if h.sinceDecay >= h.decayEvery {
		h.sinceDecay = 0
		h.total = 0
		for i := range h.buckets {
			h.buckets[i] *= 0.5
			h.total += h.buckets[i]
		}
	}
}

// Selectivity returns the estimated fraction of readings in [lo, hi]. A
// point predicate on the integer-valued nodeid is integrated over
// [v−½, v+½] — one node's share — so that it does not read as free.
func (h *Histogram) Selectivity(lo, hi float64) float64 {
	if h.total == 0 || h.hi <= h.lo {
		return 1
	}
	if lo == hi && h.attr == field.AttrNodeID {
		lo, hi = lo-0.5, hi+0.5
	}
	lo, hi = max(lo, h.lo), min(hi, h.hi)
	if lo > hi {
		return 0
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	// Only the buckets the range overlaps contribute; one bucket of slack
	// either side absorbs the rounding of the index computation.
	first := int((lo-h.lo)/width) - 1
	if first < 0 {
		first = 0
	}
	last := int((hi-h.lo)/width) + 1
	if last >= len(h.buckets) {
		last = len(h.buckets) - 1
	}
	var sum float64
	for i := first; i <= last; i++ {
		bLo := h.lo + float64(i)*width
		bHi := bLo + width
		overlap := min(hi, bHi) - max(lo, bLo)
		if overlap > 0 {
			sum += h.buckets[i] * overlap / width
		}
	}
	return sum / h.total
}

// Model evaluates the cost equations for a fixed deployment.
type Model struct {
	cstart time.Duration
	ctrans time.Duration
	// levelSizes[k] = |N_k|; levelSizes[0] is the base station and never
	// generates results.
	levelSizes []int
	sensors    int          // Σ_{k≥1} |N_k|
	hist       []*Histogram // indexed by field.Attr
	gen        uint64       // observations folded in so far
}

// Config parametrizes a Model.
type Config struct {
	// Cstart is the per-message startup cost; DefaultCstart if zero.
	Cstart time.Duration
	// Ctrans is the per-byte transmission cost; DefaultCtrans if zero.
	Ctrans time.Duration
	// HistogramBuckets is the bucket count per attribute histogram
	// (default 64).
	HistogramBuckets int
}

// NewModel builds a model for a deployment with the given per-level node
// counts (levelSizes[0] is the base station). Histograms start uniform over
// each attribute's range for the total node count.
func NewModel(levelSizes []int, cfg Config) (*Model, error) {
	if len(levelSizes) == 0 || levelSizes[0] != 1 {
		return nil, fmt.Errorf("cost: levelSizes must start with the base station, got %v", levelSizes)
	}
	if cfg.Cstart == 0 {
		cfg.Cstart = DefaultCstart
	}
	if cfg.Ctrans == 0 {
		cfg.Ctrans = DefaultCtrans
	}
	if cfg.HistogramBuckets == 0 {
		cfg.HistogramBuckets = 64
	}
	m := &Model{
		cstart:     cfg.Cstart,
		ctrans:     cfg.Ctrans,
		levelSizes: append([]int(nil), levelSizes...),
		hist:       make([]*Histogram, len(field.AllAttrs())+1),
	}
	total := 0
	for _, s := range levelSizes {
		total += s
	}
	m.sensors = total - 1
	for _, a := range field.AllAttrs() {
		lo, hi := a.Range(total)
		m.hist[a] = NewHistogram(a, lo, hi, cfg.HistogramBuckets)
	}
	return m, nil
}

// Observe feeds a reading into the attribute's histogram, refining future
// selectivity estimates.
func (m *Model) Observe(a field.Attr, v float64) {
	if h := m.histFor(a); h != nil {
		h.Observe(v)
		m.gen++
	}
}

// Generation counts the observations folded into the histograms. Every
// estimate — Selectivity, Trans, Cost — is a pure function of its argument
// between two generations, so a caller may keep one for as long as the
// generation stands.
func (m *Model) Generation() uint64 { return m.gen }

// histFor returns the attribute's histogram, or nil for an attribute the
// model keeps no statistics on.
func (m *Model) histFor(a field.Attr) *Histogram {
	if int(a) >= len(m.hist) {
		return nil
	}
	return m.hist[a]
}

// Selectivity returns sel(q, N): the estimated fraction of nodes whose
// readings satisfy all predicates, under attribute independence.
func (m *Model) Selectivity(preds []query.Predicate) float64 {
	sel := 1.0
	for _, p := range preds {
		if h := m.histFor(p.Attr); h != nil {
			sel *= h.Selectivity(p.Min, p.Max)
		}
	}
	return sel
}

// ResultRate returns result(q, N_k) of Eq. (1): result messages generated
// per second by the nodes at level k.
func (m *Model) ResultRate(q query.Query, k int) float64 {
	if k <= 0 || k >= len(m.levelSizes) {
		return 0
	}
	return m.Selectivity(q.Preds) * float64(m.levelSizes[k]) / q.Epoch.Seconds()
}

// Trans returns trans(q) of Eq. (2): transmissions per second. For
// aggregation queries it returns the lower bound result(q, N) per §3.1.2.
func (m *Model) Trans(q query.Query) float64 {
	sel, secs := m.Selectivity(q.Preds), q.Epoch.Seconds()
	if q.IsAggregation() {
		return sel * float64(m.sensors) / secs
	}
	// Acquisition-like queries forward each origin's result hop by hop —
	// Σ_k ResultRate(q, k)·k with the selectivity evaluated once — and
	// windowed queries do so only at their reporting instants.
	var sum float64
	for k := 1; k < len(m.levelSizes); k++ {
		sum += sel * float64(m.levelSizes[k]) / secs * float64(k)
	}
	if q.IsWindowed() {
		sum /= float64(q.Wins[0].Slide)
	}
	return sum
}

// PerMessage returns Cstart + Ctrans·len(q) in seconds.
func (m *Model) PerMessage(q query.Query) float64 {
	return m.cstart.Seconds() + m.ctrans.Seconds()*float64(MsgLen(q))
}

// Cost returns cost(q) of Eq. (3): the expected fraction of time the network
// spends transmitting q's results.
func (m *Model) Cost(q query.Query) float64 {
	return m.Trans(q) * m.PerMessage(q)
}

// AvgDepth returns d = Σ_k k·|N_k| / |N|, the average depth used in the
// paper's worked example.
func (m *Model) AvgDepth() float64 {
	if m.sensors == 0 {
		return 0
	}
	sum := 0
	for k := 1; k < len(m.levelSizes); k++ {
		sum += k * m.levelSizes[k]
	}
	return float64(sum) / float64(m.sensors)
}

// Sensors returns the number of sensor nodes (excluding the base station).
func (m *Model) Sensors() int { return m.sensors }
