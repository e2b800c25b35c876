// Package tier is what the three serving tiers — the shard gateway, the
// federation router and the share coordinator — have in common: the serving
// vocabulary (serving.go), a session kernel (session table, staged-command
// mailbox with deterministic commit order, tickets, per-subscriber bounded
// streams with detach/resume, slow-consumer eviction, idle reaping,
// lifecycle counters and their metric families, metrics.go) and the
// partial-aggregate algebra that splits a region query into pieces and folds
// the pieces' partials back (algebra.go). A tier holds a Kernel and supplies
// only its policy: how a committed subscribe finds or builds its group of
// sharing subscribers, and what releasing a group or closing a session means
// upstream.
//
// The lock/hook contract: the tier owns one mutex (Config.Mu). The kernel's
// client-facing methods (Register, Attach, the Session methods) take it
// themselves; every method named *Locked and every hook runs with it held,
// so a hook may call any *Locked method and nothing else of the kernel. A
// tier's Advance is lock → CommitLocked → ReapLocked → advance whatever is
// upstream, handing results to Group.Deliver → AckLocked.
//
// A subscriber stream is read under a second lock, the kernel's stream lock,
// taken after the tier's and held only to hand a buffer over: a tier pushes
// under both, a reader takes under the stream lock alone (Session.Read,
// Sub.Take), so no reader — the connection writer on its goroutine, or a
// composing tier inside its own Advance — ever waits for a running Advance.
//
// Every transition a tier makes durable happens at that commit boundary: a
// subscribe, unsubscribe or close applies inside CommitLocked, a reaped
// session closes inside ReapLocked, and the hooks the kernel calls there
// (ApplySubscribe, Unsubscribed, CloseSession) are where the gateway appends
// its WAL records, in commit order. The one transition that happens between
// boundaries — Deliver evicting a stalled subscriber in the middle of a
// simulated quantum — touches no upstream state: Deliver hands the evicted
// subscribers back and the gateway logs them, and cancels the queries they
// left without a subscriber, first thing in its next Advance.
package tier

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Config parametrizes a Kernel.
type Config struct {
	// Name prefixes error strings ("gateway", "federation", "share").
	Name string
	Mu   *sync.Mutex
	// Buffer bounds each subscriber stream and detached ring; MaxSessions
	// and SessionQuota are the admission limits.
	Buffer       int
	MaxSessions  int
	SessionQuota int
	// MailboxDeadline is the default staging-sojourn budget for subscribes
	// (zero disables; a per-request budget overrides).
	MailboxDeadline time.Duration
	// Now is the tier's virtual clock: it times spans and starts a detached
	// session's idle clock.
	Now func() sim.Time
	// Span, when set, records one span in the tier's flight recorder and
	// returns its id; the kernel fills everything but the shard. Unset, the
	// tier runs untraced and no trace id is derived.
	Span func(tracing.Span) uint64
	// Token, when set, mints a new session's resume token. Unset, the kernel
	// mints the FNV-1a hash of "<Name>:<session>:<n>", n the registration's
	// ordinal (Stats.Sessions after it).
	Token func(name string) string
	// AdmitStage, when set, runs before a subscribe is staged; an error
	// rejects the command unstaged (stage-time load shedding).
	AdmitStage func() error
	// ApplySubscribe admits a committed subscribe: it returns the group the
	// new subscriber joins, building it (and staging whatever upstream work
	// it needs) when the query is not live yet.
	ApplySubscribe func(a Admission) (*Group, error)
	// ReleaseGroup runs when a group's last subscriber leaves by
	// unsubscribe, session close or a failed ack. Eviction during Deliver
	// does not call it; the tier sweeps Empty groups itself.
	ReleaseGroup func(g *Group)
	// Unsubscribed, when set, runs after a committed unsubscribe removed sub.
	Unsubscribed func(sub *Sub)
	// CloseSession, when set, runs after a session's streams are dropped.
	CloseSession func(s *Session)
}

// Stats are the lifecycle counters every tier reports. Each is a pure
// function of the committed command sequence.
type Stats struct {
	Sessions            int64 `json:"sessions"`        // registrations ever accepted
	ActiveSessions      int   `json:"active_sessions"` // open sessions, attached or detached
	Subscribes          int64 `json:"subscribes"`      // subscribes admitted; a rejected one does not count
	Unsubscribes        int64 `json:"unsubscribes"`
	QuotaRejected       int64 `json:"quota_rejected"`
	DedupHits           int64 `json:"dedup_hits"` // subscribes joining a live group
	ActiveSubscriptions int   `json:"active_subscriptions"`
	Updates             int64 `json:"updates"`      // updates delivered downstream
	Dropped             int64 `json:"dropped"`      // deliveries lost to a full buffer
	Evicted             int64 `json:"evicted"`      // subscribers dropped on a full buffer
	RingDropped         int64 `json:"ring_dropped"` // detached updates dropped by the ring bound
	Detaches            int64 `json:"detaches"`
	Attaches            int64 `json:"attaches"`
	Resumes             int64 `json:"resumes"`
	ResumeGaps          int64 `json:"resume_gaps"`   // resumes that lost ring-shed updates
	IdleReaped          int64 `json:"idle_reaped"`   // detached sessions closed by the idle timeout
	ShedDeadline        int64 `json:"shed_deadline"` // subscribes shed: mailbox sojourn over budget
}

// Overlay writes the tier's serving-level view over its upstream's counters:
// the client-facing fields are the tier's own, losses anywhere in the chain
// add up.
func (s Stats) Overlay(dst *Counters) {
	dst.Sessions = s.Sessions
	dst.ActiveSessions = s.ActiveSessions
	dst.Subscribes = s.Subscribes
	dst.Unsubscribes = s.Unsubscribes
	dst.DedupHits = s.DedupHits
	dst.ActiveSubscriptions = s.ActiveSubscriptions
	dst.Updates = s.Updates
	dst.Detaches = s.Detaches
	dst.Attaches = s.Attaches
	dst.Resumes = s.Resumes
	dst.ResumeGaps = s.ResumeGaps
	dst.QuotaRejected += s.QuotaRejected
	dst.Dropped += s.Dropped
	dst.Evicted += s.Evicted
	dst.RingDropped += s.RingDropped
	dst.IdleReaped += s.IdleReaped
	dst.ShedDeadline += s.ShedDeadline
}

// Kernel is the session table and staged-command mailbox of one tier.
type Kernel struct {
	cfg Config
	// streamMu guards what a stream's reader shares with the tier: every
	// Sub's buf, ended and reason (see Session.Read).
	streamMu sync.Mutex
	done     chan struct{} // closed with the kernel; unblocks ticket waiters
	sessions map[string]*Session
	staged   []*command
	nextSub  SubID
	closed   bool
	stats    Stats
}

// New builds an empty kernel.
func New(cfg Config) *Kernel {
	return &Kernel{cfg: cfg, done: make(chan struct{}), sessions: make(map[string]*Session)}
}

func (k *Kernel) errf(format string, args ...any) error {
	return fmt.Errorf(k.cfg.Name+": "+format, args...)
}

// ClosedLocked reports whether CloseLocked or CrashLocked ran.
func (k *Kernel) ClosedLocked() bool { return k.closed }

// StagedLocked is the mailbox depth: commands waiting for the next commit.
func (k *Kernel) StagedLocked() int { return len(k.staged) }

// StatsLocked snapshots the counters and the live gauges.
func (k *Kernel) StatsLocked() Stats {
	st := k.stats
	st.ActiveSessions = len(k.sessions)
	return st
}

// ForgetRingDropsLocked zeroes RingDropped after a tier rebuilt its sessions
// by replay: the drops the replay re-derived were live deliveries before the
// crash, not losses.
func (k *Kernel) ForgetRingDropsLocked() { k.stats.RingDropped = 0 }

// Occupancy is the /statusz view of the session table.
type Occupancy struct {
	Attached    int // sessions a client currently holds
	Rings       int // detached streams buffering for a resume
	RingUpdates int // updates parked across those rings
}

// OccupancyLocked walks the session table for the /statusz gauges.
func (k *Kernel) OccupancyLocked() Occupancy {
	var o Occupancy
	for _, s := range k.sessions {
		if s.attached {
			o.Attached++
		}
		for _, sub := range s.live {
			if sub.detached {
				o.Rings++
				o.RingUpdates += len(sub.ring)
			}
		}
	}
	return o
}

func (k *Kernel) nowMS() int64 { return time.Duration(k.cfg.Now()).Milliseconds() }

// span records one kernel-level span at virtual millisecond atMS.
func (k *Kernel) span(s tracing.Span, atMS int64) uint64 {
	s.Shard, s.AtMS = tracing.NoShard, atMS
	return k.cfg.Span(s)
}

// Group is the set of subscribers sharing one canonical query. The tier's
// tree embeds it and is indexed by Key for as long as the group has a
// subscriber, so hooks reach the tier's state through the key.
type Group struct {
	Key    string
	QID    query.ID // representative upstream query id
	Broken error    // set by the tier when upstream establishment failed
	subs   []*Sub   // ascending SubID
}

// Empty reports whether the group has no subscriber left.
func (g *Group) Empty() bool { return len(g.subs) == 0 }

func (g *Group) remove(sub *Sub) {
	if i := slices.Index(g.subs, sub); i >= 0 {
		g.subs = slices.Delete(g.subs, i, i+1)
	}
}

// Deliver fans one epoch out to every subscriber, stamping each copy with
// the subscriber's id, next sequence number and trace. A subscriber whose
// buffer is full has stalled past its bound: the update is lost to it, its
// stream closes at once with ReasonEvicted, and it is returned so a tier
// that logs its transitions can record the removal at its next commit
// boundary. One slow client can never wedge the tier or its fast peers.
// The whole fan-out is one hold of the stream lock, so a tier that meets a
// reader's take waits once per group, not once per subscriber.
func (g *Group) Deliver(u *Update) (evicted []*Sub) {
	if len(g.subs) == 0 {
		return nil
	}
	k := g.subs[0].sess.k
	k.streamMu.Lock()
	for _, sub := range g.subs {
		if !sub.push(u) {
			evicted = append(evicted, sub)
		}
	}
	k.streamMu.Unlock()
	for _, sub := range evicted {
		k := sub.sess.k
		k.stats.Dropped++
		k.stats.Evicted++
		k.stats.ActiveSubscriptions--
		delete(sub.sess.live, sub.id)
		sub.end(ReasonEvicted)
		g.remove(sub)
	}
	return evicted
}

// Session is a downstream client session: what a tier's Register and Attach
// hand out and the connection handler drives.
type Session struct {
	k     *Kernel
	name  string
	token string
	// ready holds at most one pending wake-up for the session's reader,
	// raised after every push to, or close of, one of the session's streams.
	ready Signal

	// Guarded by the tier's lock.
	seq       uint64 // staging order tiebreaker
	live      map[SubID]*Sub
	attached  bool
	closed    bool
	idleSince sim.Time // when the session detached (reap clock)
}

// Name returns the session's registered name.
func (s *Session) Name() string { return s.name }

// Token returns the resume token for Attach after a disconnect.
func (s *Session) Token() string { return s.token }

// Ready is the reader's wake-up: a capacity-1 signal the tier raises
// whenever it pushes to, closes or evicts any of the session's streams. One
// receive may stand for many pushes, so the reader takes every stream it
// holds inside one Read.
func (s *Session) Ready() <-chan struct{} { return s.ready }

// Read runs read with the kernel's stream lock held, and not the tier's: a
// reader takes every stream it holds on the tier (Sub.Take) inside one Read,
// while an Advance may be pushing. The lock is the kernel's, so one Read
// covers the streams of every session of the tier. read must not call back
// into this tier.
func (s *Session) Read(read func()) {
	s.k.streamMu.Lock()
	defer s.k.streamMu.Unlock()
	read()
}

// Sub is one downstream subscription: a bounded stream of updates its
// reader takes (Session.Read, Take).
type Sub struct {
	sess   *Session
	g      *Group
	id     SubID
	key    string
	shared bool
	// qid is the group's QID as of the subscribe's ack (a group's upstream
	// identity is settled before any of its subscribers is acked).
	qid query.ID
	// trace/span are the subscription's causal-trace identity and its
	// subscribe span, recorded at virtual millisecond admitMS (all zero when
	// the tier runs untraced).
	trace   uint64
	span    uint64
	admitMS int64

	// Guarded by the tier's lock.
	seq      uint64
	ring     []Update // parked tail while detached
	detached bool

	// Shared with the stream's reader: the tier writes them holding its lock
	// and the stream lock, Take swaps buf under the stream lock alone. buf
	// holds what was pushed since the reader's last Take; ended: the stream
	// closed since it was admitted or last resumed (a stream admitted
	// detached has not ended: no reader holds it yet).
	buf    []Update
	reason CloseReason
	ended  bool
}

// ID returns the subscription id (unique within the tier).
func (s *Sub) ID() SubID { return s.id }

// TraceID reports the subscription's causal-trace identity (0 untraced).
func (s *Sub) TraceID() uint64 { return s.trace }

// SpanID is the subscribe span later hops parent on (0 untraced).
func (s *Sub) SpanID() uint64 { return s.span }

// Key returns the canonical downstream query text.
func (s *Sub) Key() string { return s.key }

// Shared reports whether the subscription joined a live group.
func (s *Sub) Shared() bool { return s.shared }

// Group returns the group the subscription joined.
func (s *Sub) Group() *Group { return s.g }

// Session returns the session the subscription belongs to.
func (s *Sub) Session() *Session { return s.sess }

// QueryID returns the group's representative upstream query id.
func (s *Sub) QueryID() query.ID { return s.qid }

// Take hands the reader, inside Session.Read, every update pushed since its
// last Take, in push order, and reports whether the stream is still live. A
// stream the tier closed — unsubscribe, eviction, detach, crash, shutdown —
// hands over what it buffered before the close and reports false; Reason
// then says why. spare is the reader's previous batch, recycled as the new
// buffer. A stream has one reader at a time: whoever subscribed or last
// resumed it, and a reader stops taking once it has seen the close.
func (s *Sub) Take(spare []Update) (batch []Update, live bool) {
	batch, s.buf = s.buf, spare[:0]
	return batch, !s.ended
}

// end closes a live stream for reason; its reader's next Take sees it.
func (s *Sub) end(reason CloseReason) {
	k := s.sess.k
	k.streamMu.Lock()
	s.reason, s.ended = reason, true
	k.streamMu.Unlock()
	s.sess.ready.Raise()
}

// Reason reports why the stream closed (ReasonNone while live). It takes
// the stream lock, so it must not run inside Session.Read.
func (s *Sub) Reason() CloseReason {
	s.sess.k.streamMu.Lock()
	defer s.sess.k.streamMu.Unlock()
	return s.reason
}

// Push delivers one update without blocking: a detached subscriber parks it
// in its bounded ring, one already closed drops it, a live one appends it to
// the buffer its reader takes, and false reports a live subscriber stalled
// past its buffer bound.
func (s *Sub) Push(u *Update) bool {
	k := s.sess.k
	k.streamMu.Lock()
	defer k.streamMu.Unlock()
	return s.push(u)
}

// push is Push; callers hold the stream lock.
func (s *Sub) push(u *Update) bool {
	s.seq++
	u.Sub, u.Seq, u.Trace = s.id, s.seq, s.trace
	if s.seq == 1 && s.span != 0 {
		// One span per subscription: the first delivered result, with the
		// admit-to-first-result latency as the hop duration.
		at := time.Duration(u.At).Milliseconds()
		s.sess.k.span(tracing.Span{Trace: s.trace, Parent: s.span, Kind: tracing.KindFirstResult, DurMS: at - s.admitMS, Seq: 1}, at)
	}
	switch {
	case s.detached:
		s.pushRing(*u)
	case s.reason != ReasonNone:
		return true
	case len(s.buf) >= s.sess.k.cfg.Buffer:
		return false
	default:
		s.buf = append(s.buf, *u)
		s.sess.ready.Raise()
	}
	s.sess.k.stats.Updates++
	return true
}

// pushRing appends to the parked tail, dropping the oldest update past the
// buffer bound.
func (s *Sub) pushRing(u Update) {
	k := s.sess.k
	s.ring = append(s.ring, u)
	if drop := len(s.ring) - k.cfg.Buffer; drop > 0 {
		s.ring = append(s.ring[:0], s.ring[drop:]...)
		k.stats.RingDropped += int64(drop)
	}
}

// ---------------------------------------------------------------------------
// Registration and re-attachment

// Register creates a downstream session under a unique name.
func (k *Kernel) Register(name string) (*Session, error) {
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, ErrClosed
	}
	if name == "" {
		return nil, k.errf("empty session name")
	}
	if _, dup := k.sessions[name]; dup {
		return nil, k.errf("session %q already registered", name)
	}
	if len(k.sessions) >= k.cfg.MaxSessions {
		return nil, k.errf("session limit %d reached", k.cfg.MaxSessions)
	}
	s := k.addSession(name, k.mintToken(name))
	s.attached = true
	return s, nil
}

// mintToken runs the tier's token hook, or derives the token from the tier
// name, the session name and the registration ordinal: deterministic, so a
// replayed command sequence re-mints the same tokens, and distinct per
// registration. It guards against accidental session takeover, not against
// an adversary.
func (k *Kernel) mintToken(name string) string {
	if k.cfg.Token != nil {
		return k.cfg.Token(name)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s:%s:%d", k.cfg.Name, name, k.stats.Sessions+1)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (k *Kernel) addSession(name, token string) *Session {
	s := &Session{k: k, name: name, token: token, ready: make(Signal, 1), live: make(map[SubID]*Sub)}
	k.sessions[name] = s
	k.stats.Sessions++
	return s
}

// RestoreSessionLocked re-creates a logged session under its logged token,
// detached since the given instant. The session limit does not apply: the
// original registration already passed it.
func (k *Kernel) RestoreSessionLocked(name, token string, since sim.Time) (*Session, error) {
	if _, dup := k.sessions[name]; dup {
		return nil, k.errf("session %q already registered", name)
	}
	s := k.addSession(name, token)
	s.idleSince = since
	return s, nil
}

// Attach re-claims a detached session by name and token, reporting its
// resumable streams in id order.
func (k *Kernel) Attach(name, token string) (*Session, []ResumeInfo, error) {
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, nil, ErrClosed
	}
	s := k.sessions[name]
	if s == nil {
		return nil, nil, k.errf("no session %q", name)
	}
	if s.token != token {
		return nil, nil, k.errf("bad token for session %q", name)
	}
	if s.attached {
		return nil, nil, k.errf("session %q is already attached", name)
	}
	s.attached = true
	k.stats.Attaches++
	infos := make([]ResumeInfo, 0, len(s.live))
	for _, id := range SortedKeys(s.live) {
		sub := s.live[id]
		infos = append(infos, ResumeInfo{ID: id, Key: sub.key, QueryID: sub.g.QID, LastSeq: sub.seq})
	}
	return s, infos, nil
}

// ---------------------------------------------------------------------------
// The staged-command mailbox

type cmdKind uint8

const (
	cmdSubscribe cmdKind = iota
	cmdUnsubscribe
	cmdClose
)

// command is a staged downstream command, committed in (session name, seq)
// order at the tier's next Advance.
type command struct {
	kind cmdKind
	sess *Session
	seq  uint64
	req  SubscribeRequest // subscribe
	id   SubID            // unsubscribe
	at   time.Time        // staging instant, for the sojourn budget
	done chan result
}

type result struct {
	sub *Sub
	err error
}

// Ticket resolves a staged command at the tier's next Advance.
type Ticket struct {
	k    *Kernel
	done chan result
}

// waitYields is how often Wait yields the processor before it parks.
const waitYields = 300

// Wait blocks until the command commits or the tier closes. It first yields
// a bounded number of times (~100µs on an idle processor): when the tier is
// advanced in a tight loop the commit is microseconds away, and a waiter
// that parked would need a wake-up — with the other processors idle, a
// thread wake-up, several times the commit itself — to take its reply.
func (t *Ticket) Wait() (*Sub, error) {
	for i := 0; i < waitYields; i++ {
		select {
		case res := <-t.done:
			return res.sub, res.err
		default:
			runtime.Gosched()
		}
	}
	select {
	case res := <-t.done:
		return res.sub, res.err
	case <-t.k.done:
		select {
		case res := <-t.done:
			return res.sub, res.err
		default:
			return nil, ErrClosed
		}
	}
}

func (s *Session) stage(c *command) (*Ticket, error) {
	k := s.k
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, ErrClosed
	}
	if s.closed {
		return nil, k.errf("session %q is closed", s.name)
	}
	if c.kind == cmdSubscribe && k.cfg.AdmitStage != nil {
		// Unsubscribes and closes are always staged: they free resources.
		if err := k.cfg.AdmitStage(); err != nil {
			return nil, err
		}
	}
	s.seq++
	c.sess, c.seq, c.done = s, s.seq, make(chan result, 1)
	k.staged = append(k.staged, c)
	return &Ticket{k: k, done: c.done}, nil
}

// SubscribeAsync stages a subscription, committed at the next Advance. A
// request budget bounds the mailbox sojourn: a command still staged past it
// at commit is shed with resilience.ErrOverloaded. A trace context parents
// the tier's subscribe span; a zero one derives a deterministic trace from
// the session name and staging sequence at commit.
func (s *Session) SubscribeAsync(req SubscribeRequest) (*Ticket, error) {
	return s.stage(&command{kind: cmdSubscribe, req: req, at: time.Now()})
}

// Subscribe stages the request and blocks until the next Advance commits it.
func (s *Session) Subscribe(req SubscribeRequest) (*Sub, error) {
	tk, err := s.SubscribeAsync(req)
	if err != nil {
		return nil, err
	}
	return tk.Wait()
}

// UnsubscribeAsync stages an unsubscribe, committed at the next Advance.
func (s *Session) UnsubscribeAsync(id SubID) (*Ticket, error) {
	return s.stage(&command{kind: cmdUnsubscribe, id: id})
}

// Unsubscribe stages an unsubscribe and blocks until it commits.
func (s *Session) Unsubscribe(id SubID) error {
	tk, err := s.UnsubscribeAsync(id)
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// CloseAsync stages session teardown; completion lags until the next
// Advance.
func (s *Session) CloseAsync() error {
	_, err := s.stage(&command{kind: cmdClose})
	if err != nil && !errors.Is(err, ErrClosed) {
		return nil // the session is already closed
	}
	return err
}

// Detach releases the connection but keeps the session resumable: live
// streams close and park their buffered tails in bounded rings. Detaching a
// detached session is an error. The idle clock starts: a session nobody
// re-attaches is closed by ReapLocked.
func (s *Session) Detach() error {
	k := s.k
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return ErrClosed
	}
	if s.closed {
		return k.errf("session %q is closed", s.name)
	}
	if !s.attached {
		return k.errf("session %q is already detached", s.name)
	}
	s.attached = false
	s.idleSince = k.cfg.Now()
	k.stats.Detaches++
	k.streamMu.Lock()
	for _, sub := range s.live {
		if sub.detached || sub.reason != ReasonNone {
			continue
		}
		sub.detached = true
		sub.reason, sub.ended = ReasonDetached, true
		for _, u := range sub.buf {
			sub.pushRing(u)
		}
		sub.buf = nil
	}
	k.streamMu.Unlock()
	s.ready.Raise()
	return nil
}

// Resume revives a detached stream from just after sequence `after`,
// replaying the parked tail before going live. A gap — the bounded ring
// already shed updates the client still needs — is counted, never silent.
func (s *Session) Resume(id SubID, after uint64) (*Sub, error) {
	k := s.k
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, ErrClosed
	}
	if s.closed {
		return nil, k.errf("session %q is closed", s.name)
	}
	if !s.attached {
		return nil, k.errf("session %q is detached", s.name)
	}
	sub := s.live[id]
	if sub == nil {
		return nil, k.errf("session %q has no stream %d", s.name, id)
	}
	if !sub.detached {
		return nil, k.errf("stream %d is already attached", id)
	}
	if after > sub.seq {
		return nil, k.errf("resume after seq %d but only %d delivered", after, sub.seq)
	}
	oldest := sub.seq + 1
	if len(sub.ring) > 0 {
		oldest = sub.ring[0].Seq
	}
	if oldest > after+1 {
		k.stats.ResumeGaps++
	}
	// The ring ascends by Seq; the tail replayed is what follows after.
	i, _ := slices.BinarySearchFunc(sub.ring, after+1, func(u Update, seq uint64) int { return cmp.Compare(u.Seq, seq) })
	k.streamMu.Lock()
	sub.buf = sub.ring[i:]
	sub.reason, sub.ended = ReasonNone, false
	k.streamMu.Unlock()
	if i < len(sub.ring) {
		s.ready.Raise() // the replayed tail is there to take
	}
	sub.ring = nil
	sub.detached = false
	k.stats.Resumes++
	return sub, nil
}

// ---------------------------------------------------------------------------
// Commit

// Admission is one committed subscribe as the tier's ApplySubscribe sees it.
type Admission struct {
	// Session is the subscribing session; ID is the subscription id the
	// admission takes if ApplySubscribe accepts it.
	Session *Session
	ID      SubID
	Query   query.Query
	// Budget is what is left of the request's mailbox deadline, for the tier
	// to forward upstream (zero: none set, or spent).
	Budget time.Duration
	// Trace and Span are the subscription's trace id and the subscribe span
	// just recorded (zero when the tier runs untraced).
	Trace, Span uint64
}

// Ack is a subscribe reply deferred until the tier has resolved the
// upstream work its group needed; see AckLocked.
type Ack struct {
	Sub  *Sub
	done chan result
}

// CommitLocked applies the staged commands in deterministic (session name,
// seq) order and returns how many there were. Unsubscribes and closes reply
// at once; admitted subscribes reply through AckLocked.
func (k *Kernel) CommitLocked() (int, []Ack) {
	if len(k.staged) == 0 {
		return 0, nil
	}
	staged := k.staged
	k.staged = nil
	slices.SortStableFunc(staged, func(a, b *command) int {
		return cmp.Or(cmp.Compare(a.sess.name, b.sess.name), cmp.Compare(a.seq, b.seq))
	})
	wall := time.Now()
	var acks []Ack
	for _, c := range staged {
		switch c.kind {
		case cmdSubscribe:
			sub, err := k.applySubscribe(c, wall)
			if err != nil {
				c.done <- result{err: err}
				continue
			}
			acks = append(acks, Ack{Sub: sub, done: c.done})
		case cmdUnsubscribe:
			c.done <- result{err: k.UnsubscribeLocked(c.sess, c.id)}
		case cmdClose:
			k.CloseSessionLocked(c.sess)
			c.done <- result{}
		}
	}
	return len(staged), acks
}

func (k *Kernel) applySubscribe(c *command, wall time.Time) (*Sub, error) {
	budget := c.req.Budget
	if budget <= 0 {
		budget = k.cfg.MailboxDeadline
	}
	if budget > 0 && wall.Sub(c.at) > budget {
		k.stats.ShedDeadline++
		if k.cfg.Span != nil && c.req.Trace.Trace != 0 {
			// Only a propagated context has a trace to hang the shed on; a
			// derived one does not exist yet.
			k.span(tracing.Span{Trace: c.req.Trace.Trace, Parent: c.req.Trace.Span, Kind: tracing.KindShed, Note: "deadline"}, k.nowMS())
		}
		return nil, &resilience.OverloadError{RetryAfter: DefaultShedRetryAfter, Reason: "deadline"}
	}
	s := c.sess
	if s.closed {
		return nil, k.errf("session %q is closed", s.name)
	}
	if len(s.live) >= k.cfg.SessionQuota {
		k.stats.QuotaRejected++
		return nil, k.errf("session %q is at its quota of %d subscriptions", s.name, k.cfg.SessionQuota)
	}
	a := Admission{Session: s, ID: k.nextSub + 1, Query: c.req.Query}
	if c.req.Budget > 0 {
		a.Budget = max(c.req.Budget-time.Since(c.at), 0)
	}
	var atMS int64
	if k.cfg.Span != nil {
		// A subscriber-propagated context wins; otherwise the trace derives
		// from the session name and staging sequence, so the same command
		// sequence yields the same trace ids on every run.
		a.Trace = c.req.Trace.Trace
		if a.Trace == 0 {
			a.Trace = tracing.TraceID(s.name, c.seq)
		}
		atMS = k.nowMS()
		a.Span = k.span(tracing.Span{Trace: a.Trace, Parent: c.req.Trace.Span, Kind: tracing.KindSubscribe, Seq: c.seq}, atMS)
	}
	g, err := k.cfg.ApplySubscribe(a)
	if err != nil {
		return nil, err
	}
	return k.admit(s, a.ID, g, a.Trace, a.Span, atMS), nil
}

// admit adds a subscriber to its session and group; under a detached session
// it is detached from birth and deliveries park in its resume ring.
func (k *Kernel) admit(s *Session, id SubID, g *Group, trace, span uint64, admitMS int64) *Sub {
	k.stats.Subscribes++
	k.stats.ActiveSubscriptions++
	shared := !g.Empty()
	if shared {
		k.stats.DedupHits++
	}
	k.nextSub = max(k.nextSub, id)
	sub := &Sub{
		sess: s, g: g, id: id, key: g.Key, shared: shared, qid: g.QID,
		trace: trace, span: span, admitMS: admitMS,
	}
	if !s.attached {
		sub.detached, sub.reason = true, ReasonDetached
	}
	g.subs = append(g.subs, sub)
	s.live[id] = sub
	return sub
}

// RestoreSubLocked re-creates a logged subscription under its logged id and
// trace, bypassing admission control (the original commit already passed
// it).
func (k *Kernel) RestoreSubLocked(s *Session, id SubID, g *Group, trace uint64) *Sub {
	var span uint64
	var atMS int64
	if k.cfg.Span != nil && trace != 0 {
		atMS = k.nowMS()
		span = k.span(tracing.Span{Trace: trace, Kind: tracing.KindSubscribe}, atMS)
	}
	return k.admit(s, id, g, trace, span, atMS)
}

// UnsubscribeLocked removes one subscription of s, as a committed
// unsubscribe does.
func (k *Kernel) UnsubscribeLocked(s *Session, id SubID) error {
	sub := s.live[id]
	if sub == nil {
		return k.errf("session %q has no subscription %d", s.name, id)
	}
	k.stats.Unsubscribes++
	k.drop(sub, ReasonUnsubscribed)
	if k.cfg.Unsubscribed != nil {
		k.cfg.Unsubscribed(sub)
	}
	return nil
}

// drop closes a stream and releases its group when it was the last one.
func (k *Kernel) drop(sub *Sub, reason CloseReason) {
	k.stats.ActiveSubscriptions--
	delete(sub.sess.live, sub.id)
	if sub.detached {
		sub.ring = nil
		k.streamMu.Lock()
		sub.reason = reason
		k.streamMu.Unlock()
	} else if sub.reason == ReasonNone {
		sub.end(reason)
	}
	sub.g.remove(sub)
	if sub.g.Empty() {
		k.cfg.ReleaseGroup(sub.g)
	}
}

// CloseSessionLocked drops every stream of s with ReasonShutdown (releasing
// the groups it was last in) and frees its name. Closing a closed session
// is a no-op.
func (k *Kernel) CloseSessionLocked(s *Session) {
	if s.closed {
		return
	}
	for _, id := range SortedKeys(s.live) {
		k.drop(s.live[id], ReasonShutdown)
	}
	s.closed = true
	s.attached = false
	delete(k.sessions, s.name)
	if k.cfg.CloseSession != nil {
		k.cfg.CloseSession(s)
	}
}

// AckLocked replies to the deferred subscribes once the tier has resolved
// their groups' upstream work, failing (and dropping) those whose group
// broke on the way.
func (k *Kernel) AckLocked(acks []Ack) {
	for _, a := range acks {
		if err := a.Sub.g.Broken; err != nil {
			if _, live := a.Sub.sess.live[a.Sub.id]; live {
				k.drop(a.Sub, ReasonShutdown)
			}
			a.done <- result{err: err}
			continue
		}
		a.Sub.qid = a.Sub.g.QID
		a.done <- result{sub: a.Sub}
	}
}

// ReapLocked closes, in name order, every session that has sat detached for
// timeout or longer on the tier's clock (zero or negative: none), so a
// client that never comes back stops holding a session slot and its
// queries. Attached sessions are never reaped. A tier calls it at every
// Advance, after CommitLocked.
func (k *Kernel) ReapLocked(timeout time.Duration) {
	if timeout <= 0 {
		return
	}
	now := k.cfg.Now()
	var idle []string
	for name, s := range k.sessions {
		if !s.attached && now-s.idleSince >= timeout {
			idle = append(idle, name)
		}
	}
	slices.Sort(idle)
	for _, name := range idle {
		k.CloseSessionLocked(k.sessions[name])
		k.stats.IdleReaped++
	}
}

// CloseLocked fails the staged commands, closes every session in name order
// (releasing their groups through the hooks) and unblocks ticket waiters.
func (k *Kernel) CloseLocked() {
	k.failStagedLocked()
	for _, name := range SortedKeys(k.sessions) {
		k.CloseSessionLocked(k.sessions[name])
	}
	close(k.done)
}

// CrashLocked is CloseLocked's violent sibling: nothing drains and no hook
// runs. Staged commands fail, attached streams close with ReasonCrashed,
// and the session table stays as it was for a post-mortem.
func (k *Kernel) CrashLocked() {
	k.failStagedLocked()
	for _, s := range k.sessions {
		for _, sub := range s.live {
			if !sub.detached {
				sub.detached = true
				sub.end(ReasonCrashed)
			}
		}
		s.ready.Raise()
	}
	close(k.done)
}

func (k *Kernel) failStagedLocked() {
	k.closed = true
	for _, c := range k.staged {
		c.done <- result{err: ErrClosed}
	}
	k.staged = nil
}

// SortedKeys returns m's keys in ascending order — the iteration order of
// everything that must be deterministic.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Sorted is a table kept in ascending key order: the tiers walk theirs in
// key order every round and change them only at commit. It is copy-on-write —
// Set and Delete place the key by binary search into fresh lists — so Keys and
// Values return snapshots a mutation does not disturb (a teardown deletes
// entries while it ranges over Values).
type Sorted[K cmp.Ordered, V any] struct {
	keys []K
	vals []V // vals[i] is keys[i]'s
}

// NewSorted returns an empty table.
func NewSorted[K cmp.Ordered, V any]() *Sorted[K, V] { return &Sorted[K, V]{} }

// Get returns k's value, or the zero value.
func (s *Sorted[K, V]) Get(k K) (v V) {
	if i, ok := slices.BinarySearch(s.keys, k); ok {
		v = s.vals[i]
	}
	return v
}

// Len is the number of entries.
func (s *Sorted[K, V]) Len() int { return len(s.keys) }

// Set inserts or replaces k's value; replacing leaves the key list as it is.
func (s *Sorted[K, V]) Set(k K, v V) {
	i, ok := slices.BinarySearch(s.keys, k)
	if ok {
		s.vals = spliced(s.vals, i, i+1, v)
		return
	}
	s.keys, s.vals = spliced(s.keys, i, i, k), spliced(s.vals, i, i, v)
}

// Delete removes k.
func (s *Sorted[K, V]) Delete(k K) {
	if i, ok := slices.BinarySearch(s.keys, k); ok {
		s.keys, s.vals = spliced(s.keys, i, i+1), spliced(s.vals, i, i+1)
	}
}

// spliced returns xs with xs[i:j] replaced by mid, in a list of its own.
func spliced[T any](xs []T, i, j int, mid ...T) []T {
	out := make([]T, 0, i+len(mid)+len(xs)-j)
	return append(append(append(out, xs[:i]...), mid...), xs[j:]...)
}

// Keys returns the keys in ascending order; callers must not modify it.
func (s *Sorted[K, V]) Keys() []K { return s.keys }

// Values returns the values in ascending key order — a round's walk over
// the table, with no key hashed; callers must not modify it.
func (s *Sorted[K, V]) Values() []V { return s.vals }
