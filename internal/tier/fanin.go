package tier

import (
	"slices"

	"repro/internal/query"
	"repro/internal/sim"
)

// The fan-in: the upstream half of a composing tier — the federation router
// over its shard gateways, the share coordinator over its upstream. A tree's
// pieces (shard slices, grid fragments) each stream from one upstream
// subscription, a Stream, and their updates fold into the tree's pending
// Epochs until the tier releases an instant. The tier keeps only its policy:
// what its pieces are, the order it drains and folds them in (the order its
// floats add in), and when an epoch releases.
//
// The upstream advances inside the composing tier's Advance, which waits for
// it: the upstream pushes into the stream's buffer in its kernel, and the
// composing tier takes the buffers of all its streams on one upstream tier
// inside one Session.Read per round.

// Source is a live upstream stream as the fan-in drains it; Sub.Take is the
// kernel's.
type Source interface {
	ID() SubID
	QueryID() query.ID
	Take(spare []Update) ([]Update, bool)
}

// Carrier is the upstream session a composing tier holds its streams on. An
// unsubscribe is best effort: a carrier that is down refuses it, and the
// re-attach rule unsubscribes the stream once the upstream is back.
type Carrier interface {
	UnsubscribeAsync(id SubID) error
	Resume(id SubID, after uint64) (Source, error)
}

// Stream is one upstream subscription a composing tier holds for its trees:
// staged, then resolved to an id and — while its carrier is attached and the
// upstream has not closed it — a live source, with a holder count. A tier
// holds an upstream stream exactly as long as some tree needs it, by three
// rules: at resolve, a stream nobody holds is unsubscribed (Resolve); at the
// last release, a live one is (Release); at re-attach, a carried stream
// nobody holds is (Reattach).
type Stream struct {
	on      Carrier
	wait    func() (Source, error) // the staged subscribe, until Resolve
	src     Source                 // nil while staged, detached or closed upstream
	batch   []Update               // the last batch taken, recycled by the next Take
	id      SubID                  // zero until resolved, and once dropped
	lastSeq uint64                 // the last sequence number drained: the resume cursor
	holders int
}

// Stage starts the stream for one holder: a subscribe staged on carrier on,
// which wait collects once the upstream has committed it.
func (s *Stream) Stage(on Carrier, wait func() (Source, error)) {
	s.on, s.wait, s.holders = on, wait, 1
}

// Hold adds a holder.
func (s *Stream) Hold() { s.holders++ }

// ID is the upstream subscription id (zero while staged).
func (s *Stream) ID() SubID { return s.id }

// Resolve collects the staged subscribe once the upstream has committed it,
// returning the live source — nil when nobody holds the stream any more, in
// which case it is unsubscribed at once — or the admission's error.
func (s *Stream) Resolve() (Source, error) {
	src, err := s.wait()
	s.wait = nil
	if err != nil {
		return nil, err
	}
	s.id = src.ID()
	if s.holders == 0 {
		_ = s.on.UnsubscribeAsync(s.id)
		return nil, nil
	}
	s.src, s.lastSeq = src, 0
	return src, nil
}

// Release drops one holder and reports whether it was the last. The last
// one unsubscribes a live stream; a staged one is unsubscribed when it
// resolves, and one whose carrier is gone when it re-attaches — provided the
// tier stops counting it among the held.
func (s *Stream) Release() bool {
	s.holders--
	if s.holders > 0 {
		return false
	}
	if s.src != nil {
		_ = s.on.UnsubscribeAsync(s.id)
		s.src = nil
	}
	return true
}

// Detach marks the stream not live: its carrier detached or died, closing
// the stream under the tier. Reattach revives it.
func (s *Stream) Detach() { s.src = nil }

// Drain folds every update waiting on a live stream into fold, in arrival
// order, advancing the resume cursor; a tier calls it inside its carrier's
// Session.Read. A stream the upstream closed under the tier (crash,
// eviction) folds what it buffered before the close, then stops being live
// until a re-attach or its release.
func (s *Stream) Drain(fold func(Update)) {
	if s.src == nil {
		return
	}
	batch, live := s.src.Take(s.batch)
	for _, u := range batch {
		s.lastSeq = u.Seq
		fold(u)
	}
	clear(batch) // hold no rows past the fold
	s.batch = batch
	if !live {
		s.src = nil
	}
}

// Reattach re-binds the streams held on one upstream session once it has
// re-attached as on, carrying the resumable streams carried. A held stream
// the session still carries resumes from its last sequence number drained;
// one it no longer carries is dropped (its ID reads zero and it never goes
// live again); a carried stream nobody holds is unsubscribed. A staged
// stream resolves later, on the new carrier. It returns how many resumed.
func Reattach(on Carrier, carried []ResumeInfo, held []*Stream) (resumed int) {
	for _, s := range held {
		s.on = on
		if s.id != 0 && slices.ContainsFunc(carried, func(in ResumeInfo) bool { return in.ID == s.id }) {
			if src, err := on.Resume(s.id, s.lastSeq); err == nil {
				s.src = src
				resumed++
				continue
			}
		}
		s.id = 0
	}
	for _, in := range carried {
		if !slices.ContainsFunc(held, func(s *Stream) bool { return s.id == in.ID }) {
			_ = on.UnsubscribeAsync(in.ID)
		}
	}
	return resumed
}

// Epoch accumulates one virtual instant's pieces until the tier releases
// it: which slots (pieces) contributed, their rows (placed by the tier),
// their aggregates folded in the order added, whether any was degraded and
// at what worst coverage, and the provenance shard mask. Epochs are recycled
// through an EpochPool, so nothing in one outlives its release but what the
// tier takes out: a tier that hands Rows downstream sets it to nil.
type Epoch struct {
	At   sim.Time
	Rows []query.Row
	Acc
	got      []uint64 // bit i set: slot i contributed
	n        int      // bits set in got
	Degraded bool
	coverage float64 // the worst contribution's, once Degraded
	Shards   uint64
}

// Add folds one piece's update in as slot: its aggregates into the Acc, its
// degradation and provenance into the epoch's. Rows are the tier's to place.
func (e *Epoch) Add(slot int, u *Update) {
	w, bit := slot/64, uint64(1)<<(slot%64)
	for len(e.got) <= w {
		e.got = append(e.got, 0)
	}
	if e.got[w]&bit == 0 {
		e.got[w] |= bit
		e.n++
	}
	e.Shards |= u.Prov.Shards
	if u.Degraded {
		if !e.Degraded || u.Coverage < e.coverage {
			e.coverage = u.Coverage
		}
		e.Degraded = true
	}
	e.Acc.Add(u.Aggs)
}

// Complete reports whether n slots contributed.
func (e *Epoch) Complete(n int) bool { return e.n >= n }

// Coverage is the composed coverage fraction: 1 unless degraded.
func (e *Epoch) Coverage() float64 {
	if !e.Degraded {
		return 1
	}
	return e.coverage
}

// EpochPool is a composing tier's pending-epoch table: per tree, a list of
// epochs ascending by instant, every accumulator recycled through one free
// list.
type EpochPool struct{ free []*Epoch }

// At returns list's epoch for instant at, inserting a recycled (or new) one
// in order. Pieces mostly report the newest instants, so the search runs
// from the back.
func (p *EpochPool) At(list *[]*Epoch, at sim.Time) *Epoch {
	l := *list
	i := len(l)
	for i > 0 && l[i-1].At > at {
		i--
	}
	if i > 0 && l[i-1].At == at {
		return l[i-1]
	}
	var e *Epoch
	if n := len(p.free); n > 0 {
		e, p.free = p.free[n-1], p.free[:n-1]
		e.got, e.Rows, e.n, e.Degraded, e.Shards = e.got[:0], e.Rows[:0], 0, false, 0
		e.Acc.Reset()
	} else {
		e = new(Epoch)
	}
	e.At = at
	*list = slices.Insert(l, i, e)
	return e
}

// Drop recycles the first n epochs of list, keeping the rest in order.
func (p *EpochPool) Drop(list *[]*Epoch, n int) {
	p.free = append(p.free, (*list)[:n]...)
	*list = append((*list)[:0], (*list)[n:]...)
}
