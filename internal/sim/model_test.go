package sim

import (
	"container/heap"
	"testing"
	"time"
)

// The event queue is checked against a reference kept here: container/heap
// over freshly allocated records, the layout the engine had before its
// queue became a typed 4-ary heap over recycled records. Both are driven by
// the same seeded script of Schedule/After/Cancel/Run, including scheduling
// and cancelling from inside callbacks and at the current instant, and must
// fire the same events in the same order at the same times.

// scripted is what the script needs of a queue; events are named by id.
type scripted interface {
	schedule(at Time, id int, fire func())
	after(d time.Duration, id int, fire func())
	cancel(id int) bool
	isPending(id int) bool
	run(until Time)
	size() int
	clock() Time
}

type refEvent struct {
	at        Time
	seq       uint64
	fire      func()
	index     int
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *refHeap) Push(x any)   { ev := x.(*refEvent); ev.index = len(*h); *h = append(*h, ev) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	ev.index = -1
	*h = old[:len(old)-1]
	return ev
}

type refEngine struct {
	now   Time
	queue refHeap
	seq   uint64
	byID  map[int]*refEvent
}

func (r *refEngine) schedule(at Time, id int, fire func()) {
	ev := &refEvent{at: at, seq: r.seq, fire: fire}
	r.seq++
	heap.Push(&r.queue, ev)
	r.byID[id] = ev
}
func (r *refEngine) after(d time.Duration, id int, fire func()) {
	if d < 0 {
		d = 0
	}
	r.schedule(r.now+d, id, fire)
}
func (r *refEngine) isPending(id int) bool {
	ev := r.byID[id]
	return ev != nil && !ev.cancelled && ev.index >= 0
}
func (r *refEngine) cancel(id int) bool {
	if !r.isPending(id) {
		return false
	}
	r.byID[id].cancelled = true
	return true
}
func (r *refEngine) run(until Time) {
	for len(r.queue) > 0 {
		if next := r.queue[0]; next.cancelled {
			heap.Pop(&r.queue)
			continue
		} else if next.at > until {
			break
		}
		ev := heap.Pop(&r.queue).(*refEvent)
		r.now = ev.at
		ev.fire()
	}
	if r.now < until {
		r.now = until
	}
}
func (r *refEngine) size() int {
	n := 0
	for _, ev := range r.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}
func (r *refEngine) clock() Time { return r.now }

// realEngine adapts Engine, remembering every Handle it was given.
type realEngine struct {
	e       *Engine
	handles map[int]Handle
}

func (r *realEngine) schedule(at Time, id int, fire func()) {
	r.handles[id] = r.e.Schedule(at, fire)
}
func (r *realEngine) after(d time.Duration, id int, fire func()) {
	r.handles[id] = r.e.After(d, fire)
}
func (r *realEngine) cancel(id int) bool    { return r.handles[id].Cancel() }
func (r *realEngine) isPending(id int) bool { return r.handles[id].Pending() }
func (r *realEngine) run(until Time)        { r.e.Run(until) }
func (r *realEngine) size() int             { return r.e.Len() }
func (r *realEngine) clock() Time           { return r.e.Now() }

// scan counts the live entries of the engine's heap and lane the slow way.
func (r *realEngine) scan() int {
	n := 0
	for _, entries := range [][]entry{r.e.queue, r.e.lane[r.e.head:]} {
		for _, en := range entries {
			if !en.ev.cancelled {
				n++
			}
		}
	}
	return n
}

type firing struct {
	id int
	at Time
}

// runScript drives q with the script of the given seed and returns what
// fired, plus every observation the script made along the way.
func runScript(q scripted, seed int64, check func()) (log []firing, obs []int) {
	rng := NewRand(seed)
	nextID := 0
	var fire func(id int) func()
	op := func(depth int) {
		switch r := rng.Intn(10); {
		case r < 4:
			id := nextID
			nextID++
			q.schedule(q.clock()+Time(rng.Intn(50))*time.Millisecond, id, fire(id))
		case r < 6:
			id := nextID
			nextID++
			q.after(time.Duration(rng.Intn(60)-10)*time.Millisecond, id, fire(id))
		case r < 8:
			if nextID > 0 {
				id := rng.Intn(nextID)
				was := q.isPending(id)
				got := q.cancel(id)
				again := q.cancel(id)
				obs = append(obs, id, b2i(was), b2i(got), b2i(again), b2i(q.isPending(id)))
			}
		case r < 9:
			// Run does not nest: inside a callback this op is a no-op.
			if depth == 0 {
				q.run(q.clock() + Time(rng.Intn(40))*time.Millisecond)
			}
		default:
			obs = append(obs, q.size())
		}
		check()
	}
	fire = func(id int) func() {
		return func() {
			log = append(log, firing{id, q.clock()})
			// Inside its own callback an event is no longer pending.
			obs = append(obs, b2i(q.isPending(id)), b2i(q.cancel(id)))
			for n := rng.Intn(3); n > 0; n-- {
				op(1)
			}
		}
	}
	for step := 0; step < 400; step++ {
		op(0)
	}
	q.run(q.clock() + time.Hour)
	obs = append(obs, q.size())
	return log, obs
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestEngineMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ref := &refEngine{byID: map[int]*refEvent{}}
		wantLog, wantObs := runScript(ref, seed, func() {})

		eng := &realEngine{e: NewEngine(), handles: map[int]Handle{}}
		gotLog, gotObs := runScript(eng, seed, func() {
			if got, want := eng.e.Len(), eng.scan(); got != want {
				t.Fatalf("seed %d: Len() = %d, brute-force scan = %d", seed, got, want)
			}
		})

		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotLog), len(wantLog))
		}
		for i := range wantLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, gotLog[i], wantLog[i])
			}
		}
		if len(gotObs) != len(wantObs) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(gotObs), len(wantObs))
		}
		for i := range wantObs {
			if gotObs[i] != wantObs[i] {
				t.Fatalf("seed %d: observation %d = %d, reference %d", seed, i, gotObs[i], wantObs[i])
			}
		}
		if uint64(len(gotLog)) != eng.e.Fired() {
			t.Fatalf("seed %d: Fired() = %d, %d callbacks ran", seed, eng.e.Fired(), len(gotLog))
		}
	}
}

// A Handle outlives its event: once the event has fired or been cancelled
// and its record has been recycled for a new event, the old Handle is dead
// and cannot touch the new occupant.
func TestStaleHandleCannotReachRecycledRecord(t *testing.T) {
	e := NewEngine()
	fired := e.Schedule(1*time.Millisecond, func() {})
	cancelled := e.Schedule(2*time.Millisecond, func() { t.Fatal("cancelled event fired") })
	if !cancelled.Cancel() {
		t.Fatal("first Cancel must report pending")
	}
	e.Run(5 * time.Millisecond) // both records leave the queue and are recycled

	ran := 0
	a := e.Schedule(10*time.Millisecond, func() { ran++ })
	b := e.Schedule(11*time.Millisecond, func() { ran++ })
	reused := 0
	for _, old := range []Handle{fired, cancelled} {
		if old.ev == a.ev || old.ev == b.ev {
			reused++
		}
		if old.Pending() {
			t.Fatal("stale handle reports pending")
		}
		if old.Cancel() {
			t.Fatal("stale handle cancelled something")
		}
	}
	if reused != 2 {
		t.Fatalf("%d of 2 records recycled; the test must exercise reuse", reused)
	}
	if !a.Pending() || !b.Pending() || e.Len() != 2 {
		t.Fatalf("new occupants disturbed: a=%v b=%v Len=%d", a.Pending(), b.Pending(), e.Len())
	}
	e.RunAll()
	if ran != 2 {
		t.Fatalf("%d of 2 new events fired", ran)
	}
}
