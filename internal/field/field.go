// Package field generates the synthetic physical phenomena the simulated
// sensors measure.
//
// The paper runs on TOSSIM with mote sensor boards reading light and
// temperature; readings in real deployments are spatially and temporally
// correlated, a property §3.2.2 explicitly relies on ("the set of sensor
// nodes involved in a query are likely to be spatially connected and
// temporally stable"). This package substitutes a seeded Gaussian-bump field:
// each attribute is a smooth function of position and time — a base level
// plus a spatial gradient, a small set of slowly drifting radial bumps and
// low-amplitude noise — so nearby nodes read similar values and a node's
// value changes slowly. That reproduces exactly the correlation structure
// the in-network optimizer exploits, without TinyOS hardware.
package field

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Attr identifies a sensed attribute. The set matches the paper's
// experiments (§4.3 uses nodeid, light, temp).
type Attr uint8

const (
	// AttrNodeID is the node's identifier, exposed as a pseudo-sensor the
	// way TinyDB does.
	AttrNodeID Attr = iota + 1
	// AttrLight is light intensity in raw ADC-like units, range [0, 1000].
	AttrLight
	// AttrTemp is temperature, range [0, 100].
	AttrTemp
	// AttrHumidity is relative humidity, range [0, 100].
	AttrHumidity
	// AttrVoltage is battery voltage, range [0, 5].
	AttrVoltage

	numAttrs = 5
)

// AttrSet is a set of attributes, one bit per Attr.
type AttrSet uint8

// SetOf returns the set holding the listed attributes.
func SetOf(attrs []Attr) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s |= 1 << a
	}
	return s
}

// Has reports whether a is in the set.
func (s AttrSet) Has(a Attr) bool { return s&(1<<a) != 0 }

// Len returns the number of attributes in the set.
func (s AttrSet) Len() int { return bits.OnesCount8(uint8(s)) }

// Values is a set of attribute readings held flat: which attributes are
// present and one slot per attribute. It is the one form a sample or result
// row takes from the mote to the socket — copied by assignment, built and
// read without allocating. The zero value is the empty set.
type Values struct {
	has AttrSet
	v   [numAttrs + 1]float64
}

// ValuesOf returns the readings held in a map (tests and oracles that
// build a row by hand).
func ValuesOf(m map[Attr]float64) Values {
	var vs Values
	for a, v := range m {
		vs.Set(a, v)
	}
	return vs
}

// Set stores the reading of attribute a.
func (vs *Values) Set(a Attr, v float64) {
	vs.v[a] = v
	vs.has |= 1 << a
}

// Get returns the reading of attribute a and whether it is present.
func (vs *Values) Get(a Attr) (float64, bool) {
	if !vs.has.Has(a) {
		return 0, false
	}
	return vs.v[a], true
}

// Len returns the number of readings present.
func (vs *Values) Len() int { return vs.has.Len() }

// Only returns the readings of the attributes in keep.
func (vs Values) Only(keep AttrSet) Values {
	vs.has &= keep
	return vs
}

// Each calls fn for every reading present, in ascending attribute order.
func (vs *Values) Each(fn func(a Attr, v float64)) {
	for a := Attr(1); a <= numAttrs; a++ {
		if vs.has.Has(a) {
			fn(a, vs.v[a])
		}
	}
}

// String renders the readings in ascending attribute order, e.g.
// "{nodeid:5 light:512.25}".
func (vs Values) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	vs.Each(func(a Attr, v float64) {
		if sb.Len() > 1 {
			sb.WriteByte(' ')
		}
		sb.WriteString(a.String())
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	})
	sb.WriteByte('}')
	return sb.String()
}

// Sample reads the attributes in set at once, modelling the shared
// acquisition of §3.2.1 (one physical sample serves every query that fires
// at this instant).
func Sample(src Source, id topology.NodeID, set AttrSet, t sim.Time) Values {
	var vs Values
	for a := Attr(1); a <= numAttrs; a++ {
		if set.Has(a) {
			vs.Set(a, src.Reading(id, a, t))
		}
	}
	return vs
}

// AllAttrs lists every attribute, in declaration order.
func AllAttrs() []Attr {
	return []Attr{AttrNodeID, AttrLight, AttrTemp, AttrHumidity, AttrVoltage}
}

// String returns the TinyDB-style lowercase name of the attribute.
func (a Attr) String() string {
	switch a {
	case AttrNodeID:
		return "nodeid"
	case AttrLight:
		return "light"
	case AttrTemp:
		return "temp"
	case AttrHumidity:
		return "humidity"
	case AttrVoltage:
		return "voltage"
	default:
		return fmt.Sprintf("attr(%d)", uint8(a))
	}
}

// ParseAttr converts a TinyDB-style attribute name to an Attr.
func ParseAttr(s string) (Attr, error) {
	for _, a := range AllAttrs() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("field: unknown attribute %q", s)
}

// Range returns the [min, max] value range of the attribute for a network of
// n nodes. The optimizer's selectivity estimation uses these bounds as its
// prior data distribution.
func (a Attr) Range(n int) (min, max float64) {
	switch a {
	case AttrNodeID:
		return 0, float64(n - 1)
	case AttrLight:
		return 0, 1000
	case AttrTemp:
		return 0, 100
	case AttrHumidity:
		return 0, 100
	case AttrVoltage:
		return 0, 5
	default:
		return 0, 1
	}
}

// bump is a slowly moving radial feature (a cloud shadow, a heat source...).
type bump struct {
	cx, cy   float64 // center
	vx, vy   float64 // drift in feet/hour
	radius   float64
	amp      float64
	phase    float64 // temporal oscillation phase
	periodHr float64

	// Precomputed at construction for the Reading hot path.
	omega  float64 // 2π/periodHr
	inv2r2 float64 // 1/(2·radius²)
}

// maxBumps bounds the features per attribute; tick relies on it to stay
// allocation-free per bump.
const maxBumps = 4

// tick caches the node-independent terms of an attribute at one virtual
// instant: the network-wide drift, each bump's drifted center and its
// oscillated amplitude. Simulations sample every node at shared, aligned
// epoch instants (§3.2.1), so one tick serves a whole network sweep and the
// per-reading work reduces to the spatial attenuation and noise hash. A
// tick is immutable once published.
type tick struct {
	t      sim.Time
	drift  float64
	n      int
	cx     [maxBumps]float64
	cy     [maxBumps]float64
	ampOsc [maxBumps]float64
}

// attrModel is the per-attribute generative model.
type attrModel struct {
	base     float64 // network-wide mean level
	gradX    float64 // per-foot spatial gradient
	gradY    float64
	bumps    []bump
	noiseAmp float64
	driftAmp float64 // slow network-wide temporal oscillation
	periodHr float64
	min, max float64
	perNode  []float64 // fixed per-node calibration offset

	// static is the time-invariant per-node term, precomputed at
	// construction: base + gradient·position + calibration offset.
	static []float64
	omega  float64 // 2π/periodHr

	// cache holds the most recent tick. Published atomically so the Field
	// stays safe for concurrent reads.
	cache atomic.Pointer[tick]
}

// tickAt returns the node-independent terms for time t, reusing the cached
// tick when t matches (the hot case: every node reads at the same aligned
// epoch instant).
func (m *attrModel) tickAt(t sim.Time) *tick {
	if tk := m.cache.Load(); tk != nil && tk.t == t {
		return tk
	}
	hours := t.Hours()
	tk := &tick{t: t, n: len(m.bumps)}
	tk.drift = m.driftAmp * math.Sin(m.omega*hours)
	for i := range m.bumps {
		b := &m.bumps[i]
		tk.cx[i] = b.cx + b.vx*hours
		tk.cy[i] = b.cy + b.vy*hours
		tk.ampOsc[i] = b.amp * (0.7 + 0.3*math.Sin(b.omega*hours+b.phase))
	}
	m.cache.Store(tk)
	return tk
}

// Field produces deterministic readings for every (node, attribute, time)
// triple. It is immutable after construction apart from an internal
// atomically-published cache, and safe for concurrent reads.
type Field struct {
	topo   *topology.Topology
	px, py []float64 // node positions, flattened for the hot path
	models [numAttrs + 1]*attrModel
}

// Config tunes the generated phenomena.
type Config struct {
	// Seed drives every random choice in the field.
	Seed int64
	// NoiseAmp scales per-reading noise relative to the attribute range
	// (default 0.01). Noise is a deterministic hash of (node, attr, time) so
	// that re-reading the same instant yields the same value.
	NoiseAmp float64
	// Correlation in [0,1] scales the spatial feature sizes; higher values
	// produce larger, smoother features (default 0.6).
	Correlation float64
}

// New builds a field over the given topology.
func New(topo *topology.Topology, cfg Config) *Field {
	if cfg.NoiseAmp == 0 {
		cfg.NoiseAmp = 0.01
	}
	if cfg.Correlation == 0 {
		cfg.Correlation = 0.6
	}
	rng := sim.NewRand(cfg.Seed)
	f := &Field{
		topo: topo,
		px:   make([]float64, topo.Size()),
		py:   make([]float64, topo.Size()),
	}
	// Extent of the deployment, used to scale features.
	var maxX, maxY float64
	for i := 0; i < topo.Size(); i++ {
		p := topo.Position(topology.NodeID(i))
		f.px[i], f.py[i] = p.X, p.Y
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	extent := math.Max(math.Max(maxX, maxY), 1)

	for _, a := range AllAttrs() {
		if a == AttrNodeID {
			continue
		}
		lo, hi := a.Range(topo.Size())
		span := hi - lo
		m := &attrModel{
			base:     lo + span*(0.35+0.3*rng.Float64()),
			gradX:    span * (rng.Float64() - 0.5) * 0.4 / extent,
			gradY:    span * (rng.Float64() - 0.5) * 0.4 / extent,
			noiseAmp: span * cfg.NoiseAmp,
			driftAmp: span * 0.08,
			periodHr: 1 + 2*rng.Float64(),
			min:      lo,
			max:      hi,
		}
		nBumps := 2 + rng.Intn(3) // stays within maxBumps
		for b := 0; b < nBumps; b++ {
			m.bumps = append(m.bumps, bump{
				cx:       rng.Float64() * maxX,
				cy:       rng.Float64() * maxY,
				vx:       (rng.Float64() - 0.5) * extent * 0.2,
				vy:       (rng.Float64() - 0.5) * extent * 0.2,
				radius:   extent * cfg.Correlation * (0.3 + 0.4*rng.Float64()),
				amp:      span * (0.15 + 0.25*rng.Float64()) * signOf(rng.Float64()-0.5),
				phase:    rng.Float64() * 2 * math.Pi,
				periodHr: 0.5 + 1.5*rng.Float64(),
			})
		}
		m.perNode = make([]float64, topo.Size())
		for i := range m.perNode {
			m.perNode[i] = span * 0.02 * rng.NormFloat64()
		}
		m.precompute(f)
		f.models[a] = m
	}
	return f
}

// precompute derives the Reading hot-path terms that never change after
// construction.
func (m *attrModel) precompute(f *Field) {
	if len(m.bumps) > maxBumps {
		panic(fmt.Sprintf("field: %d bumps exceeds maxBumps %d", len(m.bumps), maxBumps))
	}
	m.omega = 2 * math.Pi / m.periodHr
	for i := range m.bumps {
		b := &m.bumps[i]
		b.omega = 2 * math.Pi / b.periodHr
		b.inv2r2 = 1 / (2 * b.radius * b.radius)
	}
	m.static = make([]float64, len(f.px))
	for i := range m.static {
		m.static[i] = m.base + m.gradX*f.px[i] + m.gradY*f.py[i] + m.perNode[i]
	}
}

func signOf(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// Reading returns the value node id senses for attribute a at virtual time t.
// Values are clamped to the attribute range.
func (f *Field) Reading(id topology.NodeID, a Attr, t sim.Time) float64 {
	if a == AttrNodeID {
		return float64(id)
	}
	m := f.models[a]
	if m == nil {
		return 0
	}
	tk := m.tickAt(t)
	px, py := f.px[id], f.py[id]

	v := m.static[id] + tk.drift
	for i := 0; i < tk.n; i++ {
		dx := px - tk.cx[i]
		dy := py - tk.cy[i]
		v += tk.ampOsc[i] * math.Exp(-(dx*dx+dy*dy)*m.bumps[i].inv2r2)
	}
	v += m.noiseAmp * hashNoise(int64(id), int64(a), int64(t))

	if v < m.min {
		v = m.min
	}
	if v > m.max {
		v = m.max
	}
	return v
}

// hashNoise maps (node, attr, time) to a deterministic value in [-1, 1],
// so a reading is a pure function of its arguments.
func hashNoise(a, b, c int64) float64 {
	x := uint64(a)*0x9E3779B185EBCA87 ^ uint64(b)*0xC2B2AE3D27D4EB4F ^ uint64(c)*0x165667B19E3779F9
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	// Map the top 53 bits to [0,1), then to [-1,1].
	u := float64(x>>11) / float64(1<<53)
	return 2*u - 1
}

// UniformField is a degenerate Field-compatible generator used by unit tests
// and the paper's §3.1.3 worked example, where readings are assumed uniform:
// node i reads a value linear in i across the attribute range, constant in
// time. It implements Source.
type UniformField struct {
	N int // number of nodes
}

// Reading implements Source: node id reads lo + (id/(N-1))·(hi-lo).
func (u UniformField) Reading(id topology.NodeID, a Attr, _ sim.Time) float64 {
	if a == AttrNodeID {
		return float64(id)
	}
	lo, hi := a.Range(u.N)
	if u.N <= 1 {
		return lo
	}
	return lo + (hi-lo)*float64(id)/float64(u.N-1)
}

// Source abstracts reading generation so simulations can run on the
// correlated Field or on synthetic stand-ins.
type Source interface {
	Reading(id topology.NodeID, a Attr, t sim.Time) float64
}

var (
	_ Source = (*Field)(nil)
	_ Source = UniformField{}
)

// Duration helpers shared by callers that think in epochs.

// Hours converts a sim.Time to fractional hours (exposed for tests).
func Hours(t sim.Time) float64 { return time.Duration(t).Hours() }
