// Package tier is what the composed serving tiers — the federation router
// and the share coordinator — have in common: a session kernel (session
// table, staged-command mailbox with deterministic commit order, tickets,
// per-subscriber bounded streams with detach/resume, lifecycle counters)
// and the partial-aggregate algebra that splits a region query into pieces
// and folds the pieces' partials back (algebra.go). A tier holds a Kernel
// and supplies only its policy: how a committed subscribe finds or builds
// its group of sharing subscribers, and what releasing a group or closing a
// session means upstream.
//
// The gateway itself does not use the kernel: its session state is owned by
// an actor loop and every transition is WAL-logged.
package tier

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/tracing"
)

// Config parametrizes a Kernel. The tier owns the lock: every hook and
// every method named *Locked runs with Mu held, and the kernel's
// client-facing methods take it themselves.
type Config struct {
	// Name prefixes error strings ("federation", "share").
	Name string
	Mu   *sync.Mutex
	// Buffer bounds each subscriber channel and detached ring; MaxSessions
	// and SessionQuota are the admission limits.
	Buffer       int
	MaxSessions  int
	SessionQuota int
	// MailboxDeadline is the default staging-sojourn budget for subscribes
	// (zero disables; a per-request budget overrides).
	MailboxDeadline time.Duration
	// Tracer, when set, records each committed subscribe's span at NowMS
	// (the tier's virtual clock in milliseconds).
	Tracer *tracing.Recorder
	NowMS  func() int64
	// Token mints a new session's resume token.
	Token func(name string) (string, error)
	// ApplySubscribe admits a committed subscribe: it returns the group the
	// new subscriber joins, building it (and staging whatever upstream work
	// it needs) when the query is not live yet.
	ApplySubscribe func(a Admission) (*Group, error)
	// ReleaseGroup runs when a group's last subscriber leaves by
	// unsubscribe, session close or a failed ack. Eviction during Deliver
	// does not call it; the tier sweeps Empty groups after its release loop.
	ReleaseGroup func(g *Group)
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
	Evicted             int64 `json:"evicted"`      // subscribers dropped on a full buffer
	RingDropped         int64 `json:"ring_dropped"` // detached updates dropped by the ring bound
	Detaches            int64 `json:"detaches"`
	Attaches            int64 `json:"attaches"`
	Resumes             int64 `json:"resumes"`
	ResumeGaps          int64 `json:"resume_gaps"`   // resumes that lost ring-shed updates
	ShedDeadline        int64 `json:"shed_deadline"` // subscribes shed: mailbox sojourn over budget
}

// Overlay writes the tier's serving-level view over its upstream's counters:
// the client-facing fields are the tier's own, losses anywhere in the chain
// add up.
func (s Stats) Overlay(dst *gateway.Stats) {
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
	dst.Evicted += s.Evicted
	dst.RingDropped += s.RingDropped
	dst.ShedDeadline += s.ShedDeadline
}

// Kernel is the session table and staged-command mailbox of one tier.
type Kernel struct {
	cfg      Config
	done     chan struct{} // closed by CloseLocked; unblocks ticket waiters
	sessions map[string]*Session
	staged   []*command
	nextSub  gateway.SubID
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

// ClosedLocked reports whether CloseLocked ran.
func (k *Kernel) ClosedLocked() bool { return k.closed }

// StatsLocked snapshots the counters and the live gauges.
func (k *Kernel) StatsLocked() Stats {
	st := k.stats
	st.ActiveSessions = len(k.sessions)
	for _, s := range k.sessions {
		st.ActiveSubscriptions += len(s.live)
	}
	return st
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
// buffer is full is evicted.
func (g *Group) Deliver(u *gateway.Update) {
	var evicted []*Sub
	for _, sub := range g.subs {
		if !sub.Push(u) {
			evicted = append(evicted, sub)
		}
	}
	for _, sub := range evicted {
		sub.sess.k.stats.Evicted++
		delete(sub.sess.live, sub.id)
		sub.reason = gateway.ReasonEvicted
		close(sub.ch)
		sub.sess.ready.Raise()
		g.remove(sub)
	}
}

// Session is a downstream client session. It satisfies
// gateway.ServerSession.
type Session struct {
	k     *Kernel
	name  string
	token string
	// ready holds at most one pending wake-up for the connection writer,
	// raised after every push to, or close of, one of the session's streams.
	ready gateway.Signal

	// Guarded by the tier's lock.
	seq      uint64 // staging order tiebreaker
	live     map[gateway.SubID]*Sub
	attached bool
	closed   bool
}

// Name returns the session's registered name.
func (s *Session) Name() string { return s.name }

// Token returns the resume token for Attach after a disconnect.
func (s *Session) Token() string { return s.token }

// Ready implements gateway.ServerSession: a coalescing signal that some
// stream of the session has updates to drain or has closed.
func (s *Session) Ready() <-chan struct{} { return s.ready }

// Sub is one downstream subscription. It satisfies gateway.ServerSub.
type Sub struct {
	sess   *Session
	g      *Group
	id     gateway.SubID
	key    string
	shared bool
	// trace/span are the subscription's causal-trace identity and its
	// subscribe span (zero when the tier runs untraced).
	trace uint64
	span  uint64

	// Guarded by the tier's lock.
	seq      uint64
	ch       chan gateway.Update
	ring     []gateway.Update // parked tail while detached
	detached bool
	reason   gateway.CloseReason
}

// ID returns the subscription id (unique within the tier).
func (s *Sub) ID() gateway.SubID { return s.id }

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

// QueryID returns the group's representative upstream query id.
func (s *Sub) QueryID() query.ID {
	s.sess.k.cfg.Mu.Lock()
	defer s.sess.k.cfg.Mu.Unlock()
	return s.g.QID
}

// Updates returns the live update channel (replaced on Resume).
func (s *Sub) Updates() <-chan gateway.Update {
	s.sess.k.cfg.Mu.Lock()
	defer s.sess.k.cfg.Mu.Unlock()
	return s.ch
}

// Reason reports why the channel closed (ReasonNone while live).
func (s *Sub) Reason() gateway.CloseReason {
	s.sess.k.cfg.Mu.Lock()
	defer s.sess.k.cfg.Mu.Unlock()
	return s.reason
}

// Push delivers one update without blocking: a detached subscriber parks it
// in its bounded ring, one already closed drops it, and false reports a
// live subscriber stalled past its buffer bound.
func (s *Sub) Push(u *gateway.Update) bool {
	s.seq++
	u.Sub, u.Seq, u.Trace = s.id, s.seq, s.trace
	switch {
	case s.detached:
		s.pushRing(*u)
	case s.reason != gateway.ReasonNone:
		return true
	default:
		select {
		case s.ch <- *u:
			s.sess.ready.Raise()
		default:
			return false
		}
	}
	s.sess.k.stats.Updates++
	return true
}

// pushRing appends to the parked tail, dropping the oldest update past the
// buffer bound.
func (s *Sub) pushRing(u gateway.Update) {
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
		return nil, gateway.ErrClosed
	}
	if _, dup := k.sessions[name]; dup {
		return nil, k.errf("session %q already registered", name)
	}
	if len(k.sessions) >= k.cfg.MaxSessions {
		return nil, k.errf("session limit %d reached", k.cfg.MaxSessions)
	}
	token, err := k.cfg.Token(name)
	if err != nil {
		return nil, err
	}
	s := &Session{k: k, name: name, token: token, ready: make(gateway.Signal, 1), live: make(map[gateway.SubID]*Sub), attached: true}
	k.sessions[name] = s
	k.stats.Sessions++
	return s, nil
}

// Attach re-claims a detached session by name and token, reporting its
// resumable streams in id order.
func (k *Kernel) Attach(name, token string) (*Session, []gateway.ResumeInfo, error) {
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, nil, gateway.ErrClosed
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
	infos := make([]gateway.ResumeInfo, 0, len(s.live))
	for _, id := range SortedKeys(s.live) {
		sub := s.live[id]
		infos = append(infos, gateway.ResumeInfo{ID: id, Key: sub.key, QueryID: sub.g.QID, LastSeq: sub.seq})
	}
	return s, infos, nil
}

// RegisterSession implements gateway.Backend.
func (k *Kernel) RegisterSession(name string) (gateway.ServerSession, error) {
	s, err := k.Register(name)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// AttachSession implements gateway.Backend.
func (k *Kernel) AttachSession(name, token string) (gateway.ServerSession, []gateway.ResumeInfo, error) {
	s, infos, err := k.Attach(name, token)
	if err != nil {
		return nil, nil, err
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
	req  gateway.SubscribeRequest // subscribe
	id   gateway.SubID            // unsubscribe
	at   time.Time                // staging instant, for the sojourn budget
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

// Wait blocks until the command commits or the tier closes.
func (t *Ticket) Wait() (*Sub, error) {
	select {
	case res := <-t.done:
		return res.sub, res.err
	case <-t.k.done:
		select {
		case res := <-t.done:
			return res.sub, res.err
		default:
			return nil, gateway.ErrClosed
		}
	}
}

func (s *Session) stage(c *command) (*Ticket, error) {
	k := s.k
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, gateway.ErrClosed
	}
	if s.closed {
		return nil, k.errf("session %q is closed", s.name)
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
func (s *Session) SubscribeAsync(req gateway.SubscribeRequest) (*Ticket, error) {
	return s.stage(&command{kind: cmdSubscribe, req: req, at: time.Now()})
}

// Subscribe implements gateway.ServerSession: stage, then wait for commit.
func (s *Session) Subscribe(req gateway.SubscribeRequest) (gateway.ServerSub, error) {
	tk, err := s.SubscribeAsync(req)
	if err != nil {
		return nil, err
	}
	sub, err := tk.Wait()
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// UnsubscribeAsync stages an unsubscribe, committed at the next Advance.
func (s *Session) UnsubscribeAsync(id gateway.SubID) (*Ticket, error) {
	return s.stage(&command{kind: cmdUnsubscribe, id: id})
}

// Unsubscribe implements gateway.ServerSession (blocks until commit).
func (s *Session) Unsubscribe(id gateway.SubID) error {
	tk, err := s.UnsubscribeAsync(id)
	if err != nil {
		return err
	}
	_, err = tk.Wait()
	return err
}

// CloseAsync stages session teardown; completion lags until the next
// Advance. Implements gateway.ServerSession.
func (s *Session) CloseAsync() error {
	_, err := s.stage(&command{kind: cmdClose})
	if err != nil && !errors.Is(err, gateway.ErrClosed) {
		return nil // the session is already closed
	}
	return err
}

// Detach releases the connection but keeps the session resumable: live
// streams close and park their buffered tails in bounded rings.
func (s *Session) Detach() error {
	k := s.k
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return gateway.ErrClosed
	}
	if s.closed {
		return k.errf("session %q is closed", s.name)
	}
	if !s.attached {
		return k.errf("session %q is already detached", s.name)
	}
	s.attached = false
	k.stats.Detaches++
	for _, sub := range s.live {
		if sub.detached || sub.reason != gateway.ReasonNone {
			continue
		}
		sub.detached = true
		sub.reason = gateway.ReasonDetached
		close(sub.ch)
		for u := range sub.ch {
			sub.pushRing(u)
		}
	}
	s.ready.Raise()
	return nil
}

// Resume revives a detached stream from just after sequence `after`,
// replaying the parked tail before going live. A gap — the bounded ring
// already shed updates the client still needs — is counted, never silent.
// Implements gateway.ServerSession.
func (s *Session) Resume(id gateway.SubID, after uint64) (gateway.ServerSub, error) {
	k := s.k
	k.cfg.Mu.Lock()
	defer k.cfg.Mu.Unlock()
	if k.closed {
		return nil, gateway.ErrClosed
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
	sub.ch = make(chan gateway.Update, k.cfg.Buffer)
	for _, u := range sub.ring {
		if u.Seq > after {
			sub.ch <- u
		}
	}
	sub.ring = nil
	sub.detached = false
	sub.reason = gateway.ReasonNone
	k.stats.Resumes++
	return sub, nil
}

// ---------------------------------------------------------------------------
// Commit

// Admission is one committed subscribe as the tier's ApplySubscribe sees it.
type Admission struct {
	Query query.Query
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
	staged := k.staged
	k.staged = nil
	sort.SliceStable(staged, func(i, j int) bool {
		if staged[i].sess.name != staged[j].sess.name {
			return staged[i].sess.name < staged[j].sess.name
		}
		return staged[i].seq < staged[j].seq
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
			c.done <- result{err: k.applyUnsubscribe(c)}
		case cmdClose:
			k.closeSession(c.sess)
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
		return nil, &resilience.OverloadError{RetryAfter: gateway.DefaultShedRetryAfter, Reason: "deadline"}
	}
	s := c.sess
	if s.closed {
		return nil, k.errf("session %q is closed", s.name)
	}
	if len(s.live) >= k.cfg.SessionQuota {
		k.stats.QuotaRejected++
		return nil, k.errf("session %q is at its quota of %d subscriptions", s.name, k.cfg.SessionQuota)
	}
	a := Admission{Query: c.req.Query}
	if c.req.Budget > 0 {
		a.Budget = max(c.req.Budget-time.Since(c.at), 0)
	}
	if k.cfg.Tracer != nil {
		// A subscriber-propagated context wins; otherwise the trace derives
		// from the session name and staging sequence, so the same command
		// sequence yields the same trace ids on every run.
		a.Trace = c.req.Trace.Trace
		if a.Trace == 0 {
			a.Trace = tracing.TraceID(s.name, c.seq)
		}
		a.Span = k.cfg.Tracer.Record(tracing.Span{
			Trace:  a.Trace,
			Parent: c.req.Trace.Span,
			Kind:   tracing.KindSubscribe,
			Shard:  tracing.NoShard,
			AtMS:   k.cfg.NowMS(),
			Seq:    c.seq,
		})
	}
	g, err := k.cfg.ApplySubscribe(a)
	if err != nil {
		return nil, err
	}
	k.stats.Subscribes++
	shared := !g.Empty()
	if shared {
		k.stats.DedupHits++
	}
	k.nextSub++
	sub := &Sub{
		sess: s, g: g, id: k.nextSub, key: g.Key, shared: shared,
		trace: a.Trace, span: a.Span,
		ch: make(chan gateway.Update, k.cfg.Buffer),
	}
	if !s.attached {
		sub.detached = true
		sub.reason = gateway.ReasonDetached
	}
	g.subs = append(g.subs, sub)
	s.live[sub.id] = sub
	return sub, nil
}

func (k *Kernel) applyUnsubscribe(c *command) error {
	sub := c.sess.live[c.id]
	if sub == nil {
		return k.errf("session %q has no subscription %d", c.sess.name, c.id)
	}
	k.stats.Unsubscribes++
	k.drop(sub, gateway.ReasonUnsubscribed)
	return nil
}

// drop closes a stream and releases its group when it was the last one.
func (k *Kernel) drop(sub *Sub, reason gateway.CloseReason) {
	delete(sub.sess.live, sub.id)
	if sub.detached {
		sub.ring = nil
		sub.reason = reason
	} else if sub.reason == gateway.ReasonNone {
		sub.reason = reason
		close(sub.ch)
		sub.sess.ready.Raise()
	}
	sub.g.remove(sub)
	if sub.g.Empty() {
		k.cfg.ReleaseGroup(sub.g)
	}
}

func (k *Kernel) closeSession(s *Session) {
	if s.closed {
		return
	}
	for _, id := range SortedKeys(s.live) {
		k.drop(s.live[id], gateway.ReasonShutdown)
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
				k.drop(a.Sub, gateway.ReasonShutdown)
			}
			a.done <- result{err: err}
			continue
		}
		a.done <- result{sub: a.Sub}
	}
}

// CloseLocked fails the staged commands, closes every session in name order
// (releasing their groups through the hooks) and unblocks ticket waiters.
func (k *Kernel) CloseLocked() {
	k.closed = true
	for _, c := range k.staged {
		c.done <- result{err: gateway.ErrClosed}
	}
	k.staged = nil
	for _, name := range SortedKeys(k.sessions) {
		k.closeSession(k.sessions[name])
	}
	close(k.done)
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

// Sorted is a map that remembers its ascending key list between mutations:
// the tiers walk their tables in key order every round but change them only
// at commit. Keys returns a snapshot a mutation does not disturb.
type Sorted[K cmp.Ordered, V any] struct {
	m    map[K]V
	keys []K // nil when stale
}

// NewSorted returns an empty table.
func NewSorted[K cmp.Ordered, V any]() *Sorted[K, V] { return &Sorted[K, V]{m: make(map[K]V)} }

// Get returns k's value, or the zero value.
func (s *Sorted[K, V]) Get(k K) V { return s.m[k] }

// Len is the number of entries.
func (s *Sorted[K, V]) Len() int { return len(s.m) }

// Set inserts or replaces k's value.
func (s *Sorted[K, V]) Set(k K, v V) {
	if _, ok := s.m[k]; !ok {
		s.keys = nil
	}
	s.m[k] = v
}

// Delete removes k.
func (s *Sorted[K, V]) Delete(k K) {
	if _, ok := s.m[k]; ok {
		s.keys = nil
		delete(s.m, k)
	}
}

// Keys returns the keys in ascending order; callers must not modify it.
func (s *Sorted[K, V]) Keys() []K {
	if s.keys == nil && len(s.m) > 0 {
		s.keys = SortedKeys(s.m)
	}
	return s.keys
}
