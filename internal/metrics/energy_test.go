package metrics

import (
	"math"
	"testing"
	"time"

	"repro/internal/topology"
)

func TestNodeEnergyComponents(t *testing.T) {
	c := NewCollector(3)
	c.AddTxTime(1, 10*time.Second)
	rx := []time.Duration{1: 20 * time.Second, 2: 0}
	c.SetRxSource(func(id topology.NodeID) time.Duration { return rx[id] })
	c.CountSamples(1, 100)
	m := EnergyModel{TxPower: 0.06, RxPower: 0.03, SampleEnergy: 1e-4, Battery: 1000}
	got := c.NodeEnergy(1, m)
	want := 0.06*10 + 0.03*20 + 1e-4*100
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("energy = %f, want %f", got, want)
	}
	if c.NodeEnergy(2, m) != 0 {
		t.Fatal("idle node should have zero energy")
	}
	if got := c.TotalEnergy(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("total = %f, want %f", got, want)
	}
}

func TestEnergyDefaults(t *testing.T) {
	m := DefaultEnergyModel()
	if m.TxPower <= m.RxPower || m.Battery <= 0 || m.SampleEnergy <= 0 {
		t.Fatalf("implausible defaults: %+v", m)
	}
	// Zero-valued model behaves like the defaults.
	c := NewCollector(2)
	c.AddTxTime(1, time.Second)
	if c.NodeEnergy(1, EnergyModel{}) != c.NodeEnergy(1, m) {
		t.Fatal("zero model must take defaults")
	}
}

func TestNetworkLifetime(t *testing.T) {
	c := NewCollector(3)
	// Node 1 draws 60mW continuously for the whole interval; node 2 is
	// idle. Lifetime = battery / power of the busiest node.
	c.AddTxTime(1, 100*time.Second)
	m := EnergyModel{TxPower: 0.06, RxPower: 0.03, SampleEnergy: 1e-4, Battery: 1000}
	life := c.NetworkLifetime(100*time.Second, m)
	// Node 1's average power = (0.06 W × 100 s)/100 s = 0.06 W →
	// lifetime = 1000 J / 0.06 W ≈ 16 667 s.
	want := 1000.0 / 0.06
	if math.Abs(life.Seconds()-want) > 1 {
		t.Fatalf("lifetime = %v, want ≈ %.0fs", life, want)
	}
	// The base station's consumption is ignored.
	c2 := NewCollector(3)
	c2.AddTxTime(0, 100*time.Second)
	if got := c2.NetworkLifetime(100*time.Second, m); got.Seconds() < 1e9 {
		t.Fatalf("BS-only consumption should give ~infinite lifetime, got %v", got)
	}
	if c.NetworkLifetime(0, m) != 0 {
		t.Fatal("zero sim time")
	}
}
