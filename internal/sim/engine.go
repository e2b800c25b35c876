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

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all interaction with a running simulation happens from
// within event callbacks, which the engine serialises.
type Engine struct {
	now Time
	// queue is a 4-ary min-heap on (at, seq): half the depth of a binary
	// heap, and the four children of a slot share a cache line or two.
	queue []entry
	// lane[head:] holds the events scheduled for the instant that was now
	// when they were scheduled, in seq order: a FIFO in front of the heap.
	// The clock cannot pass them while they wait (Step takes the smaller of
	// lane head and heap top on (at, seq)), so the order is the heap's.
	lane    []entry
	head    int
	free    []*event // recycled records
	seq     uint64
	fired   uint64
	pending int // non-cancelled events queued, kept in O(1)
}

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
	if en := (entry{at: at, seq: e.seq, ev: ev}); at == e.now {
		e.lane = append(e.lane, en)
	} else {
		e.push(en)
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
	for e.next() != nil {
		if at, act := e.pop(); act != nil {
			e.pending--
			e.now = at
			e.fired++
			act.Fire()
			return true
		}
	}
	return false
}

// Run executes every event due at or before until — events at exactly until
// do fire — and leaves the clock at until (or where it was, if later).
func (e *Engine) Run(until Time) {
	for next := e.next(); next != nil && next.at <= until; next = e.next() {
		if next.ev.cancelled {
			e.pop()
			continue
		}
		e.Step()
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

// next returns the earliest queued entry, cancelled or not, or nil: the
// heap top or the lane head, whichever is first on (at, seq).
func (e *Engine) next() *entry {
	var first *entry
	if len(e.queue) > 0 {
		first = &e.queue[0]
	}
	if e.head < len(e.lane) && (first == nil || e.lane[e.head].before(first)) {
		first = &e.lane[e.head]
	}
	return first
}

func (e *Engine) push(en entry) {
	q := append(e.queue, en)
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
	e.queue = q
}

// pop removes the entry next returns and recycles its record, returning the
// event's time and action; the action is nil if the event was cancelled.
// The record is released before the action runs, so the action may schedule
// into it — the bumped generation keeps the old Handle dead.
func (e *Engine) pop() (Time, Action) {
	var head entry
	if next := e.next(); e.head < len(e.lane) && next == &e.lane[e.head] {
		head, *next = *next, entry{}
		if e.head++; e.head == len(e.lane) {
			e.lane, e.head = e.lane[:0], 0
		}
	} else {
		head = e.popHeap()
	}
	ev := head.ev
	act := ev.act
	ev.act = nil
	ev.cancelled = false
	ev.gen++
	e.free = append(e.free, ev)
	return head.at, act
}

// popHeap removes and returns the heap's top entry.
func (e *Engine) popHeap() entry {
	q := e.queue
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
	e.queue = q
	return head
}
