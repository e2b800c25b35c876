// Package telemetry is the live observability plane: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms, with
// optional labels, and Mirror, the one snapshot-to-counter copy), a
// Prometheus text-format encoder and decoder-side validator, and an admin
// HTTP server exposing /metrics, /healthz, /readyz, /statusz, /tracez and
// /debug/pprof.
//
// The registry is safe for concurrent use. Values are float64; counters
// enforce monotonicity. Gather output is deterministically ordered
// (families by name, children by label values), so an exposition produced
// from a deterministic simulation is byte-identical across runs.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically non-decreasing value.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter; negative deltas are ignored.
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Set forces the counter to v if v is an advance; used when mirroring an
// external monotonic counter into the registry (see Mirror).
func (c *Counter) Set(v float64) {
	if math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		if v < math.Float64frombits(old) {
			return
		}
		if c.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments (or, with a negative delta, decrements) the gauge.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []uint64  // len(bounds)+1, last is the +Inf bucket
	sum     float64
	samples uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx]++
	h.sum += v
	h.samples++
	h.mu.Unlock()
}

// Reset clears all buckets; used when a histogram is rebuilt from an
// authoritative snapshot on each gather.
func (h *Histogram) Reset() {
	h.mu.Lock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum = 0
	h.samples = 0
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts (per bound, then +Inf), the
// sum, and the total sample count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.samples
}

// Family is a named metric family with optional labels. A family with no
// label names has exactly one implicit child; With() addresses labeled
// children.
type Family struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string  // label names, may be empty
	Bounds []float64 // histogram bucket bounds (nil otherwise)

	mu       sync.Mutex
	children map[string]*child // key: joined label values
}

type child struct {
	values  []string // label values, aligned with Family.Labels
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

func (f *Family) child(values ...string) *child {
	if len(values) != len(f.Labels) {
		panic(fmt.Sprintf("telemetry: family %s wants %d label values, got %d", f.Name, len(f.Labels), len(values)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += "\xff"
		}
		key += v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		switch f.Kind {
		case KindCounter:
			c.counter = &Counter{}
		case KindGauge:
			c.gauge = &Gauge{}
		case KindHistogram:
			h := &Histogram{bounds: f.Bounds}
			h.counts = make([]uint64, len(f.Bounds)+1)
			c.hist = h
		}
		f.children[key] = c
	}
	return c
}

// Counter returns the counter child for the given label values.
func (f *Family) Counter(values ...string) *Counter {
	if f.Kind != KindCounter {
		panic("telemetry: " + f.Name + " is not a counter")
	}
	return f.child(values...).counter
}

// Gauge returns the gauge child for the given label values.
func (f *Family) Gauge(values ...string) *Gauge {
	if f.Kind != KindGauge {
		panic("telemetry: " + f.Name + " is not a gauge")
	}
	return f.child(values...).gauge
}

// Histogram returns the histogram child for the given label values.
func (f *Family) Histogram(values ...string) *Histogram {
	if f.Kind != KindHistogram {
		panic("telemetry: " + f.Name + " is not a histogram")
	}
	return f.child(values...).hist
}

// Registry holds metric families and gather hooks.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*Family{}}
}

// OnGather registers a hook invoked (in registration order) at the start
// of every Gather. Hooks let pull-style sources (gateway stats, radio
// metrics, span logs) sync their current values into the registry just
// before exposition.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

func (r *Registry) register(f *Family) *Family {
	if !validMetricName(f.Name) {
		panic("telemetry: invalid metric name " + f.Name)
	}
	for _, l := range f.Labels {
		if !validLabelName(l) {
			panic("telemetry: invalid label name " + l + " on " + f.Name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.families[f.Name]; ok {
		if prev.Kind != f.Kind {
			panic("telemetry: " + f.Name + " re-registered with a different kind")
		}
		return prev
	}
	f.children = map[string]*child{}
	r.families[f.Name] = f
	return f
}

// NewCounter registers (or returns the existing) counter family.
func (r *Registry) NewCounter(name, help string, labels ...string) *Family {
	return r.register(&Family{Name: name, Help: help, Kind: KindCounter, Labels: labels})
}

// NewGauge registers (or returns the existing) gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) *Family {
	return r.register(&Family{Name: name, Help: help, Kind: KindGauge, Labels: labels})
}

// NewHistogram registers (or returns the existing) histogram family with
// the given ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...string) *Family {
	if len(bounds) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram " + name + " bounds not strictly ascending")
		}
	}
	return r.register(&Family{Name: name, Help: help, Kind: KindHistogram, Bounds: append([]float64(nil), bounds...), Labels: labels})
}

// Row is one counter mirrored from a snapshot type T: the family's name and
// HELP text, and the field of T it reads.
type Row[T any] struct {
	Name, Help string
	Get        func(T) int64
}

// Mirror registers one counter family per row and returns the setter that
// copies a snapshot into them. The copy is a monotonic Set, so a source whose
// replay re-derives a smaller history (a recovered gateway does not re-count
// drops on long-gone channels) never makes an exposed counter run backwards.
func Mirror[T any](r *Registry, rows []Row[T]) func(T) {
	fams := make([]*Family, len(rows))
	for i, row := range rows {
		fams[i] = r.NewCounter(row.Name, row.Help)
	}
	return func(snap T) {
		for i, row := range rows {
			fams[i].Counter().Set(float64(row.Get(snap)))
		}
	}
}

// Sample is one gathered time-series point.
type Sample struct {
	Labels []string // label values aligned with the family's label names
	Value  float64

	// Histogram-only payload.
	BucketCounts []uint64 // cumulative, aligned with family Bounds then +Inf
	Sum          float64
	Count        uint64
}

// GatheredFamily is a family snapshot with deterministically ordered
// samples.
type GatheredFamily struct {
	Name    string
	Help    string
	Kind    Kind
	Labels  []string
	Bounds  []float64
	Samples []Sample
}

// Gather runs hooks, then snapshots every family, sorted by name with
// children sorted by label values.
func (r *Registry) Gather() []GatheredFamily {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	fams := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	out := make([]GatheredFamily, 0, len(fams))
	for _, f := range fams {
		gf := GatheredFamily{Name: f.Name, Help: f.Help, Kind: f.Kind, Labels: f.Labels, Bounds: f.Bounds}
		f.mu.Lock()
		kids := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			kids = append(kids, c)
		}
		f.mu.Unlock()
		sort.Slice(kids, func(i, j int) bool {
			a, b := kids[i].values, kids[j].values
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		for _, c := range kids {
			s := Sample{Labels: c.values}
			switch f.Kind {
			case KindCounter:
				s.Value = c.counter.Value()
			case KindGauge:
				s.Value = c.gauge.Value()
			case KindHistogram:
				s.BucketCounts, s.Sum, s.Count = c.hist.snapshot()
			}
			gf.Samples = append(gf.Samples, s)
		}
		out = append(out, gf)
	}
	return out
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if alpha {
			continue
		}
		if i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return false
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
		if alpha {
			continue
		}
		if i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return false
	}
	return true
}
