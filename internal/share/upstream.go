package share

import (
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Upstream is the surface the coordinator drives fragments against: a
// single gateway (OverGateway) or a federation router fleet (OverRouter).
// Everything the coordinator needs is the async subscribe/ticket shape
// plus session attach/resume for crash failover — the blocking
// ServerSession API would deadlock here, because the coordinator itself
// is the component driving Advance.
type Upstream interface {
	Advance(d time.Duration) (int, error)
	Now() (sim.Time, error)
	Alive() bool
	Register(name string) (UpstreamSession, error)
	Attach(name, token string) (UpstreamSession, []gateway.ResumeInfo, error)
	ServeStats() (gateway.Stats, sim.Time, error)
}

// UpstreamSession is one coordinator-owned session on the upstream tier.
type UpstreamSession interface {
	Name() string
	Token() string
	SubscribeAsync(q query.Query) (UpstreamTicket, error)
	// UnsubscribeAsync stages a cancel; completion may lag the call.
	UnsubscribeAsync(id gateway.SubID) error
	Resume(id gateway.SubID, after uint64) (UpstreamSub, error)
}

// UpstreamTicket resolves to a fragment stream at the next Advance.
type UpstreamTicket interface {
	Wait() (UpstreamSub, error)
}

// tracedUpstreamSession is the optional UpstreamSession extension for
// causal tracing: a residual fragment admission carries the coordinator's
// trace context upstream so the gateway/router spans it causes join the
// fragment's trace. Both built-in adapters implement it; UpstreamSession
// itself keeps the plain signature decorators of this seam wrap.
type tracedUpstreamSession interface {
	subscribeTraced(q query.Query, tc tracing.Context) (UpstreamTicket, error)
}

// UpstreamSub is one live fragment stream.
type UpstreamSub interface {
	ID() gateway.SubID
	QueryID() query.ID
	Updates() <-chan gateway.Update
}

// ---------------------------------------------------------------------------
// Gateway adapter

type gwUpstream struct{ g *gateway.Gateway }

// OverGateway adapts a single gateway as the coordinator's upstream.
func OverGateway(g *gateway.Gateway) Upstream { return gwUpstream{g} }

func (u gwUpstream) Advance(d time.Duration) (int, error) { return u.g.Advance(d) }
func (u gwUpstream) Now() (sim.Time, error)               { return u.g.Now() }
func (u gwUpstream) Alive() bool                          { return u.g.Alive() }
func (u gwUpstream) ServeStats() (gateway.Stats, sim.Time, error) {
	return u.g.ServeStats()
}

func (u gwUpstream) Register(name string) (UpstreamSession, error) {
	s, err := u.g.Register(name)
	if err != nil {
		return nil, err
	}
	return gwUpSession{s}, nil
}

func (u gwUpstream) Attach(name, token string) (UpstreamSession, []gateway.ResumeInfo, error) {
	s, infos, err := u.g.Attach(name, token)
	if err != nil {
		return nil, nil, err
	}
	return gwUpSession{s}, infos, nil
}

type gwUpSession struct{ s *gateway.Session }

func (s gwUpSession) Name() string  { return s.s.Name() }
func (s gwUpSession) Token() string { return s.s.Token() }

func (s gwUpSession) SubscribeAsync(q query.Query) (UpstreamTicket, error) {
	return s.subscribeTraced(q, tracing.Context{})
}

func (s gwUpSession) subscribeTraced(q query.Query, tc tracing.Context) (UpstreamTicket, error) {
	tk, err := s.s.SubscribeAsync(gateway.SubscribeRequest{Query: q, Trace: tc})
	if err != nil {
		return nil, err
	}
	return gwTicket{tk}, nil
}

func (s gwUpSession) UnsubscribeAsync(id gateway.SubID) error {
	tk, err := s.s.UnsubscribeAsync(id)
	if err != nil {
		return err
	}
	go func() { _, _ = tk.Wait() }()
	return nil
}

func (s gwUpSession) Resume(id gateway.SubID, after uint64) (UpstreamSub, error) {
	sub, err := s.s.Resume(id, after)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

type gwTicket struct{ tk *gateway.Ticket }

func (t gwTicket) Wait() (UpstreamSub, error) {
	sub, err := t.tk.Wait()
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// ---------------------------------------------------------------------------
// Federation router adapter

type fedUpstream struct{ r *federation.Router }

// OverRouter adapts a federation router fleet as the coordinator's
// upstream, so cross-query sharing composes with sharded deployments:
// fragments the coordinator materializes are themselves planned across
// shards by the router.
func OverRouter(r *federation.Router) Upstream { return fedUpstream{r} }

func (u fedUpstream) Advance(d time.Duration) (int, error) { return u.r.Advance(d) }
func (u fedUpstream) Now() (sim.Time, error)               { return u.r.Now(), nil }
func (u fedUpstream) Alive() bool                          { return u.r.Alive() }
func (u fedUpstream) ServeStats() (gateway.Stats, sim.Time, error) {
	return u.r.ServeStats()
}

func (u fedUpstream) Register(name string) (UpstreamSession, error) {
	s, err := u.r.Register(name)
	if err != nil {
		return nil, err
	}
	return fedUpSession{s}, nil
}

func (u fedUpstream) Attach(name, token string) (UpstreamSession, []gateway.ResumeInfo, error) {
	s, infos, err := u.r.Attach(name, token)
	if err != nil {
		return nil, nil, err
	}
	return fedUpSession{s}, infos, nil
}

type fedUpSession struct{ s *federation.Session }

func (s fedUpSession) Name() string  { return s.s.Name() }
func (s fedUpSession) Token() string { return s.s.Token() }

func (s fedUpSession) SubscribeAsync(q query.Query) (UpstreamTicket, error) {
	return s.subscribeTraced(q, tracing.Context{})
}

func (s fedUpSession) subscribeTraced(q query.Query, tc tracing.Context) (UpstreamTicket, error) {
	tk, err := s.s.SubscribeAsync(gateway.SubscribeRequest{Query: q, Trace: tc})
	if err != nil {
		return nil, err
	}
	return fedTicket{tk}, nil
}

func (s fedUpSession) UnsubscribeAsync(id gateway.SubID) error {
	tk, err := s.s.UnsubscribeAsync(id)
	if err != nil {
		return err
	}
	go func() { _, _ = tk.Wait() }()
	return nil
}

func (s fedUpSession) Resume(id gateway.SubID, after uint64) (UpstreamSub, error) {
	sub, err := s.s.Resume(id, after)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

type fedTicket struct{ tk *federation.Ticket }

func (t fedTicket) Wait() (UpstreamSub, error) {
	sub, err := t.tk.Wait()
	if err != nil {
		return nil, err
	}
	return sub, nil
}
