package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/share"
)

// span is one traced interval: name, start, end and the span that caused
// it. Times are nanoseconds since the traced run began. A round's spans
// share its root (the `round` span, whose id is the round number + 1).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ackSpan remembers a subscribe whose ack time is known only after the
// readers exit.
type ackSpan struct {
	s      *sub
	parent int64
}

// tracer records the traced run: spans kept in memory and written at exit,
// and the per-round timings the per-layer metrics derive from. All of it is
// observed from bench/ — by timing the driver's own calls and by decorating
// the share.Upstream seam — never from inside the program.
//
// Everything except lag is touched only on the driver goroutine (the
// decorated upstream runs inside the driver's Advance call).
type tracer struct {
	epoch  time.Time
	spans  []span
	nextID int64
	// topName names the top-level Advance span after the backend it times.
	topName string
	// frames is the run's delivered-frame counter.
	frames *atomic.Int64

	roundSpan   int64
	roundStart  int64
	inQuantum   bool // a quantum Advance is in progress (not a pump)
	fedInRound  time.Duration
	pendingAcks []ackSpan

	advanceMS    []float64 // top-level Advance(quantum), per round
	fedAdvanceMS []float64 // time inside Upstream.Advance, per round
	shareSelfMS  []float64 // the difference, per round
	mergeUS      []float64 // Router merge-and-release, per round
	fedSubUS     []float64 // decorated upstream SubscribeAsync
	commitMS     []float64 // subscribe sent → committed, per window subscribe

	lag lagTracker

	// Read from the stack just before teardown.
	snap snapshot
}

func newTracer(s *spec) *tracer {
	t := &tracer{epoch: time.Now(), nextID: 1 << 32, topName: "gateway.advance"}
	if s.stack == stackFull {
		t.topName = "share.advance"
	}
	t.lag.next.Store(math.MaxInt64)
	t.lag.tr = t
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent int64) *span {
	t.nextID++
	return &span{Name: name, ID: t.nextID, Parent: parent, Start: t.now()}
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	t.spans = append(t.spans, *s)
}

func (t *tracer) beginRound(round int) {
	t.roundSpan = int64(round) + 1
	t.roundStart = t.now()
	t.fedInRound = 0
}

// endAdvance records the round's top-level Advance span and opens its
// delivery span, which ends when the clients have read every frame the
// round produced.
func (t *tracer) endAdvance(t0 time.Time, produced int64) {
	end := time.Now()
	d := end.Sub(t0)
	t.spans = append(t.spans, span{Name: t.topName, ID: t.topSpanID(), Parent: t.roundSpan,
		Start: int64(t0.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.advanceMS = append(t.advanceMS, ms(d))
	t.fedAdvanceMS = append(t.fedAdvanceMS, ms(t.fedInRound))
	t.shareSelfMS = append(t.shareSelfMS, ms(d-t.fedInRound))
	t.lag.expect(produced, end, t.roundSpan)
}

func (t *tracer) endRound() {
	t.spans = append(t.spans, span{Name: "round", ID: t.roundSpan, Start: t.roundStart, End: t.now()})
}

func (t *tracer) observeMerge(d time.Duration) {
	if t.inQuantum {
		t.mergeUS = append(t.mergeUS, float64(d)/float64(time.Microsecond))
	}
}

// lagTracker measures, per round, Advance return → last frame of that
// round read by a client. The driver posts (frame target, return time);
// whichever reader's count crosses the target stamps the end.
type lagTracker struct {
	tr   *tracer
	next atomic.Int64 // smallest outstanding target (MaxInt64: none)
	mu   sync.Mutex
	q    []lagEntry
	ms   []float64
	done []span // delivery spans, merged into the trace at exit
}

type lagEntry struct {
	target int64
	t0     time.Time
	parent int64
}

func (l *lagTracker) expect(target int64, t0 time.Time, parent int64) {
	l.mu.Lock()
	l.q = append(l.q, lagEntry{target, t0, parent})
	if len(l.q) == 1 {
		l.next.Store(target)
	}
	l.mu.Unlock()
	// The readers may already be past the target; with the store above and
	// their add-then-load, one side is guaranteed to see the other.
	l.onFrames(l.tr.frames.Load())
}

func (l *lagTracker) onFrames(got int64) {
	if got < l.next.Load() {
		return
	}
	now := time.Now()
	l.mu.Lock()
	for len(l.q) > 0 && l.q[0].target <= got {
		e := l.q[0]
		l.q = l.q[1:]
		d := now.Sub(e.t0)
		if d < 0 {
			d = 0
		}
		l.ms = append(l.ms, ms(d))
		start := int64(e.t0.Sub(l.tr.epoch))
		l.done = append(l.done, span{Name: "delivery", Parent: e.parent, Start: start, End: start + int64(d)})
	}
	if len(l.q) > 0 {
		l.next.Store(l.q[0].target)
	} else {
		l.next.Store(math.MaxInt64)
	}
	l.mu.Unlock()
}

// tracedUpstream decorates the seam between coordinator and router.
type tracedUpstream struct {
	share.Upstream
	tr *tracer
}

func (u tracedUpstream) Advance(d time.Duration) (int, error) {
	if d == 0 { // a pump: commits only, not part of a round's ledger
		return u.Upstream.Advance(d)
	}
	t := u.tr
	t.inQuantum = true
	sp := t.begin("federation.advance", t.topSpanID())
	t0 := time.Now()
	n, err := u.Upstream.Advance(d)
	t.fedInRound += time.Since(t0)
	t.end(sp)
	t.inQuantum = false
	return n, err
}

func (u tracedUpstream) Register(name string) (share.UpstreamSession, error) {
	s, err := u.Upstream.Register(name)
	if err != nil {
		return nil, err
	}
	return tracedUpSession{UpstreamSession: s, tr: u.tr}, nil
}

type tracedUpSession struct {
	share.UpstreamSession
	tr *tracer
}

func (s tracedUpSession) SubscribeAsync(q query.Query) (share.UpstreamTicket, error) {
	t0 := time.Now()
	tk, err := s.UpstreamSession.SubscribeAsync(q)
	s.tr.fedSubUS = append(s.tr.fedSubUS, float64(time.Since(t0))/float64(time.Microsecond))
	return tk, err
}

// topSpanID is the id of the current round's top-level Advance span: the
// round id offset into its own range, so children can name it before it
// ends.
func (t *tracer) topSpanID() int64 { return t.roundSpan + 1<<31 }

// finish closes the books after the readers have exited: the ack and
// delivery spans, whose ends the readers stamped.
func (t *tracer) finish() {
	for _, a := range t.pendingAcks {
		if a.s.ackAt.IsZero() {
			continue
		}
		t.nextID++
		t.spans = append(t.spans, span{Name: "ack", ID: t.nextID, Parent: a.parent,
			Start: int64(a.s.sentAt.Sub(t.epoch)), End: int64(a.s.ackAt.Sub(t.epoch))})
	}
	for _, d := range t.lag.done {
		t.nextID++
		d.ID = t.nextID
		t.spans = append(t.spans, d)
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
