package gateway

import (
	"time"

	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Backend is the serving surface Server drives: session registration and
// re-attachment, virtual-time pacing, and the stats snapshot. The single
// *Gateway implements it directly; the federation router implements it
// over a fleet of shards, which lets one TCP server front either without
// the wire protocol knowing the difference.
type Backend interface {
	// RegisterSession creates a session under a unique client-chosen name.
	RegisterSession(name string) (ServerSession, error)
	// AttachSession re-claims a detached session by name and resume token,
	// reporting its resumable streams.
	AttachSession(name, token string) (ServerSession, []ResumeInfo, error)
	// Advance commits staged commands and moves virtual time forward by d,
	// returning the number of commands applied.
	Advance(d time.Duration) (int, error)
	// ServeStats snapshots the backend's counters and current virtual time.
	ServeStats() (Stats, sim.Time, error)
	// BrownoutLevel is the backend's rung on the brownout degradation
	// ladder: the server's pacer coalesces ticks at LevelBatching and the
	// connection handlers shed new subscribes at LevelShed without even
	// staging them.
	BrownoutLevel() resilience.Level
}

// SubscribeRequest is the one subscribe call every tier takes: the parsed
// query plus the options that ride down the tier chain with it.
type SubscribeRequest struct {
	Query query.Query
	// Budget bounds the command's mailbox sojourn (wire deadline_ms): any
	// hop — router staging, shard gateway staging — that out-waits it sheds
	// the command with ErrOverloaded instead of applying it late. Zero falls
	// back to the tier's configured MailboxDeadline.
	Budget time.Duration
	// Trace is the subscriber-propagated causal context: Trace keys every
	// span the subscription produces and Span parents the tier's subscribe
	// span, so the hops of every tier join one trace. A zero context lets
	// the backend derive a deterministic trace at commit.
	Trace tracing.Context
}

// ServerSession is the per-client surface the connection handler uses.
type ServerSession interface {
	Name() string
	Token() string
	// Subscribe stages the request and blocks until the next Advance
	// commits it.
	Subscribe(req SubscribeRequest) (ServerSub, error)
	Unsubscribe(id SubID) error
	// Resume revives a detached stream from just after sequence number
	// `after`, replaying the parked tail before going live.
	Resume(id SubID, after uint64) (ServerSub, error)
	// Detach releases the connection but keeps the session resumable.
	Detach() error
	// CloseAsync tears the session down; completion may lag the call.
	CloseAsync() error
	// Ready is the connection writer's wake-up: a capacity-1 signal the
	// backend raises whenever it pushes to, or closes, any of the session's
	// subscription channels. One receive may stand for many pushes, so the
	// receiver drains every stream it holds without blocking.
	Ready() <-chan struct{}
}

// Signal is a coalescing wake-up: a capacity-1 channel whose receiver, once
// woken, looks at everything the wake-up could stand for.
type Signal chan struct{}

// Raise leaves one wake-up pending, unless one already is. It never blocks.
func (s Signal) Raise() {
	select {
	case s <- struct{}{}:
	default:
	}
}

// ServerSub is one update stream as the connection writer consumes it.
type ServerSub interface {
	ID() SubID
	QueryID() query.ID
	Shared() bool
	Key() string
	Updates() <-chan Update
	Reason() CloseReason
	// TraceID is the subscription's causal-trace identity (zero when the
	// backend runs untraced, which omits the wire field).
	TraceID() uint64
}

// gwSession adapts *Session to ServerSession (the concrete methods return
// concrete types, so the interface needs thin wrappers).
type gwSession struct{ *Session }

func (s gwSession) Subscribe(req SubscribeRequest) (ServerSub, error) {
	sub, err := s.Session.Subscribe(req)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

func (s gwSession) Resume(id SubID, after uint64) (ServerSub, error) {
	sub, err := s.Session.Resume(id, after)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

func (s gwSession) CloseAsync() error {
	t, err := s.Session.CloseAsync()
	if err != nil {
		return err
	}
	go func() { _, _ = t.Wait() }()
	return nil
}

// RegisterSession implements Backend.
func (g *Gateway) RegisterSession(name string) (ServerSession, error) {
	s, err := g.Register(name)
	if err != nil {
		return nil, err
	}
	return gwSession{s}, nil
}

// AttachSession implements Backend.
func (g *Gateway) AttachSession(name, token string) (ServerSession, []ResumeInfo, error) {
	s, infos, err := g.Attach(name, token)
	if err != nil {
		return nil, nil, err
	}
	return gwSession{s}, infos, nil
}

// ServeStats implements Backend.
func (g *Gateway) ServeStats() (Stats, sim.Time, error) {
	sn, err := g.statsAndNow()
	return sn.stats, sn.now, err
}
