package field

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/topology"
)

func grid(t *testing.T, side int) *topology.Topology {
	t.Helper()
	topo, err := topology.PaperGrid(side)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestAttrStringRoundTrip(t *testing.T) {
	for _, a := range AllAttrs() {
		got, err := ParseAttr(a.String())
		if err != nil {
			t.Fatalf("ParseAttr(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
	if _, err := ParseAttr("bogus"); err == nil {
		t.Fatal("expected error for unknown attribute")
	}
}

func TestReadingsWithinRange(t *testing.T) {
	topo := grid(t, 6)
	f := New(topo, Config{Seed: 1})
	for _, a := range AllAttrs() {
		lo, hi := a.Range(topo.Size())
		for i := 0; i < topo.Size(); i++ {
			for _, at := range []sim.Time{0, time.Minute, time.Hour, 5 * time.Hour} {
				v := f.Reading(topology.NodeID(i), a, at)
				if v < lo || v > hi {
					t.Fatalf("%v reading %f outside [%f,%f]", a, v, lo, hi)
				}
			}
		}
	}
}

func TestReadingDeterministic(t *testing.T) {
	topo := grid(t, 4)
	f1 := New(topo, Config{Seed: 7})
	f2 := New(topo, Config{Seed: 7})
	for i := 0; i < topo.Size(); i++ {
		v1 := f1.Reading(topology.NodeID(i), AttrLight, 90*time.Second)
		v2 := f2.Reading(topology.NodeID(i), AttrLight, 90*time.Second)
		if v1 != v2 {
			t.Fatalf("same seed, different reading at node %d: %f vs %f", i, v1, v2)
		}
		// Re-reading the same instant must be stable.
		if v1 != f1.Reading(topology.NodeID(i), AttrLight, 90*time.Second) {
			t.Fatal("re-reading the same instant changed the value")
		}
	}
	f3 := New(topo, Config{Seed: 8})
	diff := false
	for i := 0; i < topo.Size(); i++ {
		if f1.Reading(topology.NodeID(i), AttrLight, 0) != f3.Reading(topology.NodeID(i), AttrLight, 0) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds should produce different fields")
	}
}

func TestNodeIDAttr(t *testing.T) {
	topo := grid(t, 4)
	f := New(topo, Config{Seed: 1})
	for i := 0; i < topo.Size(); i++ {
		if got := f.Reading(topology.NodeID(i), AttrNodeID, time.Hour); got != float64(i) {
			t.Fatalf("nodeid reading = %f, want %d", got, i)
		}
	}
}

// Spatial correlation: the average absolute difference between neighbor
// readings must be clearly smaller than between random distant pairs.
func TestSpatialCorrelation(t *testing.T) {
	topo := grid(t, 8)
	f := New(topo, Config{Seed: 3, NoiseAmp: 0.005})
	at := 10 * time.Minute

	var nearSum, farSum float64
	var nearN, farN int
	n := topo.Size()
	for i := 0; i < n; i++ {
		vi := f.Reading(topology.NodeID(i), AttrLight, at)
		for j := i + 1; j < n; j++ {
			vj := f.Reading(topology.NodeID(j), AttrLight, at)
			d := topo.Position(topology.NodeID(i)).Dist(topo.Position(topology.NodeID(j)))
			diff := math.Abs(vi - vj)
			if d <= 30 {
				nearSum += diff
				nearN++
			} else if d >= 100 {
				farSum += diff
				farN++
			}
		}
	}
	near := nearSum / float64(nearN)
	far := farSum / float64(farN)
	if near >= far {
		t.Fatalf("no spatial correlation: near diff %f >= far diff %f", near, far)
	}
}

// Temporal stability: readings one epoch (2048ms) apart change much less
// than the attribute range.
func TestTemporalStability(t *testing.T) {
	topo := grid(t, 6)
	f := New(topo, Config{Seed: 5})
	lo, hi := AttrTemp.Range(topo.Size())
	span := hi - lo
	for i := 0; i < topo.Size(); i++ {
		v1 := f.Reading(topology.NodeID(i), AttrTemp, time.Minute)
		v2 := f.Reading(topology.NodeID(i), AttrTemp, time.Minute+2048*time.Millisecond)
		if math.Abs(v1-v2) > 0.1*span {
			t.Fatalf("node %d temp jumped %f in one epoch (span %f)", i, math.Abs(v1-v2), span)
		}
	}
}

func TestSampleSharedAcquisition(t *testing.T) {
	topo := grid(t, 4)
	f := New(topo, Config{Seed: 1})
	attrs := []Attr{AttrLight, AttrTemp}
	got := Sample(f, 5, SetOf(attrs), time.Minute)
	if got.Len() != 2 {
		t.Fatalf("sample returned %d attrs, want 2", got.Len())
	}
	for _, a := range attrs {
		if v, ok := got.Get(a); !ok || v != f.Reading(5, a, time.Minute) {
			t.Fatal("Sample must agree with Reading")
		}
	}
	if _, ok := got.Get(AttrHumidity); ok {
		t.Fatal("unsampled attribute reported present")
	}
	only := got.Only(SetOf([]Attr{AttrTemp, AttrVoltage}))
	if v, ok := only.Get(AttrTemp); only.Len() != 1 || !ok || v != f.Reading(5, AttrTemp, time.Minute) {
		t.Fatalf("Only = %v, want temp alone", only)
	}
}

func TestUniformField(t *testing.T) {
	u := UniformField{N: 11}
	lo, hi := AttrLight.Range(11)
	if got := u.Reading(0, AttrLight, 0); got != lo {
		t.Fatalf("node 0 = %f, want %f", got, lo)
	}
	if got := u.Reading(10, AttrLight, 0); got != hi {
		t.Fatalf("node 10 = %f, want %f", got, hi)
	}
	if got := u.Reading(5, AttrLight, time.Hour); got != lo+(hi-lo)*0.5 {
		t.Fatalf("node 5 = %f, want midpoint", got)
	}
	if got := u.Reading(3, AttrNodeID, 0); got != 3 {
		t.Fatalf("nodeid = %f, want 3", got)
	}
	single := UniformField{N: 1}
	if got := single.Reading(0, AttrTemp, 0); got != 0 {
		t.Fatalf("single-node uniform field = %f, want 0", got)
	}
}

func TestHashNoiseBounds(t *testing.T) {
	f := func(a, b, c int64) bool {
		v := hashNoise(a, b, c)
		return v >= -1 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashNoiseSpread(t *testing.T) {
	// The noise should not collapse to a constant.
	var min, max float64 = 1, -1
	for i := int64(0); i < 1000; i++ {
		v := hashNoise(i, 2, 12345)
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max-min < 1.0 {
		t.Fatalf("noise spread %f too small", max-min)
	}
}

func TestAttrRangeNodeID(t *testing.T) {
	lo, hi := AttrNodeID.Range(64)
	if lo != 0 || hi != 63 {
		t.Fatalf("nodeid range = [%f,%f], want [0,63]", lo, hi)
	}
}

// TestTickCacheConsistency asserts the per-tick memo never changes a
// reading: interleaving times (forcing cache hits and misses in every
// order) must produce exactly the values a fresh field produces.
func TestTickCacheConsistency(t *testing.T) {
	topo := grid(t, 4)
	warm := New(topo, Config{Seed: 9})
	times := []sim.Time{0, time.Second, 0, 3 * time.Second, time.Second, 0}
	type key struct {
		id topology.NodeID
		a  Attr
		t  sim.Time
	}
	got := make(map[key]float64)
	for _, at := range times {
		for i := 0; i < topo.Size(); i++ {
			for _, a := range AllAttrs() {
				k := key{topology.NodeID(i), a, at}
				v := warm.Reading(k.id, k.a, k.t)
				if prev, ok := got[k]; ok && prev != v {
					t.Fatalf("%v: reading changed across cache states: %v vs %v", k, prev, v)
				}
				got[k] = v
			}
		}
	}
	// A cold field (fresh caches) agrees on every sampled triple.
	cold := New(topo, Config{Seed: 9})
	for k, v := range got {
		if cv := cold.Reading(k.id, k.a, k.t); cv != v {
			t.Fatalf("%v: warm %v != cold %v", k, v, cv)
		}
	}
}

// TestConcurrentReadings exercises the documented concurrent-read safety:
// goroutines hammering different times and nodes must each see the same
// values a serial reader sees (run under -race to check the tick cache).
func TestConcurrentReadings(t *testing.T) {
	topo := grid(t, 4)
	f := New(topo, Config{Seed: 3})
	ref := New(topo, Config{Seed: 3})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := topology.NodeID((g*7 + i) % topo.Size())
				at := time.Duration((g+i)%5) * time.Second
				if v := f.Reading(id, AttrTemp, at); v < 0 || v > 100 {
					errs <- "reading out of range"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Post-race spot check against an untouched field.
	for i := 0; i < topo.Size(); i++ {
		if f.Reading(topology.NodeID(i), AttrTemp, time.Second) !=
			ref.Reading(topology.NodeID(i), AttrTemp, time.Second) {
			t.Fatal("concurrent access corrupted the field")
		}
	}
}

func TestValuesReadAPI(t *testing.T) {
	vs := ValuesOf(map[Attr]float64{AttrTemp: 20.5, AttrNodeID: 5, AttrVoltage: 0})
	if vs.Len() != 3 {
		t.Fatalf("Len = %d, want 3", vs.Len())
	}
	var order []Attr
	vs.Each(func(a Attr, v float64) {
		if got, ok := vs.Get(a); !ok || got != v {
			t.Fatalf("Each(%v) = %v, Get = %v, %v", a, v, got, ok)
		}
		order = append(order, a)
	})
	if len(order) != 3 || order[0] != AttrNodeID || order[1] != AttrTemp || order[2] != AttrVoltage {
		t.Fatalf("Each order = %v, want ascending attributes", order)
	}
	if got, want := vs.String(), "{nodeid:5 temp:20.5 voltage:0}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := (Values{}).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	// A copy is independent of its source.
	cp := vs
	cp.Set(AttrTemp, 99)
	if v, _ := vs.Get(AttrTemp); v != 20.5 {
		t.Fatal("assigning Values must copy")
	}
	// A dropped attribute does not print, whatever its slot still holds.
	if got := vs.Only(SetOf([]Attr{AttrTemp})).String(); got != "{temp:20.5}" {
		t.Fatalf("Only(temp).String = %q", got)
	}
}
