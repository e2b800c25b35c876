package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("event order broken: got %v", got)
		}
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want 5ms", e.Now())
	}
}

func TestEngineTimeOrdering(t *testing.T) {
	e := NewEngine()
	var got []Time
	times := []Time{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	for _, at := range times {
		e.Schedule(at, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*time.Second, func() { fired++ })
	}
	e.Run(3 * time.Second)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3 (events at exactly until must fire)", fired)
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", e.Now())
	}
	e.Run(10 * time.Second)
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	// Clock advances to until even with an empty queue.
	if e.Now() != 10*time.Second {
		t.Fatalf("clock = %v, want 10s", e.Now())
	}
}

func TestEngineAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(time.Second, func() {
		e.After(500*time.Millisecond, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 1500*time.Millisecond {
		t.Fatalf("After fired at %v, want 1.5s", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.Schedule(time.Second, func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending")
	}
	if !h.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second cancel should fail")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Pending() {
		t.Fatal("cancelled handle reports pending")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(time.Second, func() {})
	e.RunAll()
	if h.Cancel() {
		t.Fatal("cancelling a fired event must report false")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*time.Second, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	e.Schedule(time.Second, func() {})
}

func TestEngineScheduleNilPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil func must panic")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestEngineLenAndFired(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
	h.Cancel()
	if e.Len() != 1 {
		t.Fatalf("Len = %d after cancel, want 1", e.Len())
	}
	e.RunAll()
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

func TestEngineRecursiveScheduling(t *testing.T) {
	// An event chain where each event schedules the next must run in order
	// and terminate.
	e := NewEngine()
	const n = 1000
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < n {
			e.After(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.RunAll()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	if e.Now() != Time(n-1)*time.Millisecond {
		t.Fatalf("clock = %v, want %v", e.Now(), Time(n-1)*time.Millisecond)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the engine executes exactly one event per scheduled (non-cancelled)
// entry.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Time(d)*time.Millisecond, func() {
				fireTimes = append(fireTimes, e.Now())
			})
		}
		e.RunAll()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield same stream")
		}
	}
	c := NewRand(43)
	same := true
	a = NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRandForkIndependence(t *testing.T) {
	// Forked streams must be stable regardless of how much the sibling
	// stream is consumed after forking.
	base1 := NewRand(7)
	f1 := base1.Fork(1)
	v1 := f1.Float64()

	base2 := NewRand(7)
	f2 := base2.Fork(1)
	base2.Float64() // consuming the parent later must not affect the fork
	v2 := f2.Float64()

	if v1 != v2 {
		t.Fatal("fork streams must be independent of later parent usage")
	}

	// Distinct ids should give distinct streams.
	base3 := NewRand(7)
	g1 := base3.Fork(1)
	g2 := base3.Fork(2)
	diff := false
	for i := 0; i < 16; i++ {
		if g1.Float64() != g2.Float64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("forks with different ids should differ")
	}
}

func TestAfterNegativeClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(time.Second, func() {
		e.After(-5*time.Second, func() { fired = true })
	})
	e.RunAll()
	if !fired {
		t.Fatal("negative After must clamp to now and still fire")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestRunSkipsCancelledHead(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(time.Second, func() { t.Fatal("cancelled event fired") })
	fired := false
	e.Schedule(2*time.Second, func() { fired = true })
	h.Cancel()
	e.Run(90 * time.Second)
	if !fired {
		t.Fatal("later event must fire after skipping the cancelled head")
	}
}

func TestRandCoversDistributions(t *testing.T) {
	r := NewRand(5)
	if v := r.Intn(10); v < 0 || v >= 10 {
		t.Fatalf("Intn = %d", v)
	}
	if v := r.Int63n(100); v < 0 || v >= 100 {
		t.Fatalf("Int63n = %d", v)
	}
	_ = r.NormFloat64()
	if v := r.ExpFloat64(); v < 0 {
		t.Fatalf("ExpFloat64 = %f", v)
	}
	perm := r.Perm(5)
	seen := map[int]bool{}
	for _, v := range perm {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Perm = %v", perm)
	}
	vals := []int{1, 2, 3, 4}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("Shuffle lost elements: %v", vals)
	}
}

// TestEngineLenCounterInvariant cross-checks the O(1) pending counter
// against a brute-force scan through a randomized schedule/cancel/fire mix.
func TestEngineLenCounterInvariant(t *testing.T) {
	e := NewEngine()
	rng := NewRand(7)
	scan := func() int { return (&realEngine{e: e}).scan() }
	var handles []Handle
	for step := 0; step < 500; step++ {
		switch rng.Intn(4) {
		case 0, 1:
			handles = append(handles, e.After(time.Duration(rng.Intn(1000))*time.Millisecond, func() {}))
		case 2:
			if len(handles) > 0 {
				h := handles[rng.Intn(len(handles))]
				h.Cancel()
				h.Cancel() // double-cancel must not double-decrement
			}
		case 3:
			e.Step()
		}
		if got, want := e.Len(), scan(); got != want {
			t.Fatalf("step %d: Len() = %d, scan = %d", step, got, want)
		}
	}
	e.RunAll()
	if e.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", e.Len())
	}
}

// rechain is a timer that re-arms itself when it fires: a third of the time
// at the current instant — a transmission whose radio is free, a slot's
// second event — and otherwise up to one 2048 ms round ahead.
type rechain struct {
	e   *Engine
	rng *Rand
}

func (r *rechain) Fire() {
	at := r.e.Now()
	if r.rng.Intn(3) != 0 {
		at += Time(r.rng.Intn(2048)) * time.Millisecond
	}
	r.e.ScheduleAction(at, r)
}

// BenchmarkEngine is the event queue under sim_heavy's mix of current-instant
// and future events, over a standing queue of 1 000 timers: one op is one
// event fired and one scheduled.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	rng := NewRand(1)
	for i := 0; i < 1000; i++ {
		e.ScheduleAction(Time(rng.Intn(2048))*time.Millisecond, &rechain{e, rng})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
