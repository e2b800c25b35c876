// Package sim provides the discrete-event simulation engine that underpins
// the packet-level sensor-network simulator.
//
// The engine keeps a virtual clock and an ordered queue of scheduled events.
// Events scheduled for the same instant fire in scheduling order, which —
// together with explicitly seeded randomness (see Rand) — makes every
// simulation in this repository fully deterministic.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp, expressed as the duration elapsed since the
// start of the simulation. Using time.Duration keeps all arithmetic in the
// standard time units without tying the simulation to the wall clock.
type Time = time.Duration

// Action is the target of a scheduled event. A long-lived value that
// implements it — a message in flight, a mote's clock — is scheduled
// without allocating; Schedule and After adapt plain funcs.
type Action interface{ Fire() }

// funcAction adapts a func to an Action.
type funcAction func()

func (f funcAction) Fire() { f() }

// event is the mutable record a Handle and a queue entry share. Records are
// recycled: gen advances every time one leaves the queue, so a Handle taken
// for an earlier occupant can neither observe nor cancel the next one.
type event struct {
	act Action
	e   *Engine
	gen uint64
	// cancelled events stay in the queue and are skipped when popped.
	cancelled bool
}

// entry is one queue slot. The ordering key lives in the slot itself so
// sifting compares without chasing the record pointer.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	ev  *event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Handle identifies a scheduled event so that it can be cancelled.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.ev.cancelled = true
	h.ev.act = nil
	h.ev.e.pending--
	return true
}

// Pending reports whether the event is still waiting to fire.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled
}

// horizon splits the timer queue by how far ahead an event is due when it
// is scheduled: a transmission's end or a slot's next event, a few
// milliseconds out, goes to the near heap; a periodic tick or beacon, seconds
// out, to the far one. Short-lived traffic then sifts through its own few
// entries instead of every standing timer. 2^26 ns is about 67 ms.
const horizon = 1 << 26

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all interaction with a running simulation happens from
// within event callbacks, which the engine serialises.
type Engine struct {
	now Time
	// near and far are the timer queue, split at horizon: events due less
	// than horizon after the instant they were scheduled at, and the rest.
	near, far heap4
	// lane[head:] holds the events scheduled for the instant that was now
	// when they were scheduled, in seq order: a FIFO in front of the heaps.
	// The clock cannot pass them while they wait.
	lane    []entry
	head    int
	free    []*event // recycled records
	seq     uint64
	fired   uint64
	pending int // non-cancelled events queued, kept in O(1)
}

// The queues an entry can wait in; next names the one holding the earliest.
const (
	inLane = iota
	inNear
	inFar
)

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len returns the number of pending (non-cancelled) events. The count is
// maintained incrementally on Schedule/Cancel/Step, so Len is O(1) even
// with a large queue.
func (e *Engine) Len() int { return e.pending }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Schedule enqueues fn to run at the absolute virtual time at. Scheduling in
// the past (at < Now) is a programming error and panics: allowing it would
// silently reorder causality.
func (e *Engine) Schedule(at Time, fn func()) Handle {
	if fn == nil {
		panic("sim: schedule nil func")
	}
	return e.ScheduleAction(at, funcAction(fn))
}

// ScheduleAction is Schedule for a pre-built Action.
func (e *Engine) ScheduleAction(at Time, a Action) Handle {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if a == nil {
		panic("sim: schedule nil action")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{e: e}
	}
	ev.act = a
	switch en := (entry{at: at, seq: e.seq, ev: ev}); {
	case at == e.now:
		e.lane = append(e.lane, en)
	case at-e.now < horizon:
		e.near.push(en)
	default:
		e.far.push(en)
	}
	e.seq++
	e.pending++
	return Handle{ev: ev, gen: ev.gen}
}

// After enqueues fn to run d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	for {
		next, in := e.next()
		if next == nil {
			return false
		}
		if at, act := e.take(in); act != nil {
			e.fire(at, act)
			return true
		}
	}
}

// Run executes every event due at or before until — events at exactly until
// do fire — and leaves the clock at until (or where it was, if later).
func (e *Engine) Run(until Time) {
	for {
		next, in := e.next()
		if next == nil || next.at > until {
			break
		}
		if at, act := e.take(in); act != nil {
			e.fire(at, act)
		}
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll executes events until the queue drains. Intended for tests; a
// simulation with periodic maintenance never drains, so prefer Run.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

func (e *Engine) fire(at Time, act Action) {
	e.pending--
	e.now = at
	e.fired++
	act.Fire()
}

// next returns the earliest queued entry, cancelled or not, and the queue
// it heads — whichever of the lane head and the two heap tops is first on
// (at, seq) — or nil when all three are empty.
func (e *Engine) next() (first *entry, in int) {
	if len(e.far) > 0 {
		first, in = &e.far[0], inFar
	}
	if len(e.near) > 0 && (first == nil || e.near[0].before(first)) {
		first, in = &e.near[0], inNear
	}
	if e.head < len(e.lane) && (first == nil || e.lane[e.head].before(first)) {
		first, in = &e.lane[e.head], inLane
	}
	return first, in
}

// take removes the entry heading queue in and recycles its record, returning
// the event's time and action; the action is nil if the event was cancelled.
// The record is released before the action runs, so the action may schedule
// into it — the bumped generation keeps the old Handle dead.
func (e *Engine) take(in int) (Time, Action) {
	var head entry
	switch in {
	case inLane:
		head, e.lane[e.head] = e.lane[e.head], entry{}
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
	case inNear:
		head = e.near.pop()
	default:
		head = e.far.pop()
	}
	ev := head.ev
	act := ev.act
	ev.act = nil
	ev.cancelled = false
	ev.gen++
	e.free = append(e.free, ev)
	return head.at, act
}

// heap4 is a 4-ary min-heap on (at, seq): half the depth of a binary heap,
// and the four children of a slot share a cache line or two.
type heap4 []entry

func (h *heap4) push(en entry) {
	q := append(*h, en)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !en.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = en
	*h = q
}

// pop removes and returns the top entry.
func (h *heap4) pop() entry {
	q := *h
	head := q[0]
	n := len(q) - 1
	last := q[n]
	q[n].ev = nil
	q = q[:n]
	i := 0
	for {
		min := 4*i + 1
		if min >= n {
			break
		}
		for c, end := min+1, min+4; c < end && c < n; c++ {
			if q[c].before(&q[min]) {
				min = c
			}
		}
		if !q[min].before(&last) {
			break
		}
		q[i] = q[min]
		i = min
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	return head
}
