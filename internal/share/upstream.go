package share

import (
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tier"
	"repro/internal/tracing"
)

// Upstream is the surface the coordinator drives fragments against: a
// single gateway (OverGateway) or a federation router fleet (OverRouter).
// Everything the coordinator needs is the async subscribe/ticket shape
// plus session attach/resume for crash failover — the blocking
// Session.Subscribe would deadlock here, because the coordinator itself
// is the component driving Advance.
type Upstream interface {
	Advance(d time.Duration) (int, error)
	Now() sim.Time
	Alive() bool
	Register(name string) (UpstreamSession, error)
	Attach(name, token string) (UpstreamSession, []gateway.ResumeInfo, error)
	ServeStats() (gateway.Stats, sim.Time, error)
	// BrownoutLevel is the upstream's brownout ladder rung, readable from
	// any goroutine; the coordinator reports and obeys it.
	BrownoutLevel() resilience.Level
}

// upstream boxes the interface for the coordinator's atomic pointer.
type upstream struct{ Upstream }

// UpstreamSession is one coordinator-owned session on the upstream tier. It
// is the tier.Carrier the coordinator holds its fragment streams on.
type UpstreamSession interface {
	Name() string
	Token() string
	SubscribeAsync(q query.Query) (UpstreamTicket, error)
	// UnsubscribeAsync stages a cancel; completion may lag the call.
	UnsubscribeAsync(id gateway.SubID) error
	Resume(id gateway.SubID, after uint64) (UpstreamSub, error)
	// Read is tier.Session.Read: read runs under the upstream's stream lock,
	// which covers every session of the upstream tier.
	Read(read func())
}

// UpstreamTicket resolves to a fragment stream at the next Advance.
type UpstreamTicket interface {
	Wait() (UpstreamSub, error)
}

// tracedUpstreamSession is the optional UpstreamSession extension for
// causal tracing: a residual fragment admission carries the coordinator's
// trace context upstream so the gateway/router spans it causes join the
// fragment's trace. The built-in adapter implements it; UpstreamSession
// itself keeps the plain signature decorators of this seam wrap.
type tracedUpstreamSession interface {
	subscribeTraced(q query.Query, tc tracing.Context) (UpstreamTicket, error)
}

// UpstreamSub is one live fragment stream (tier.Sub.Take).
type UpstreamSub = tier.Source

// ---------------------------------------------------------------------------
// The adapter: every tier serves the kernel's sessions behind gateway.Backend

// tierUpstream adapts a gateway.Backend: only the session calls change
// shape.
type tierUpstream struct{ gateway.Backend }

// OverGateway adapts a single gateway as the coordinator's upstream.
func OverGateway(g *gateway.Gateway) Upstream { return tierUpstream{g} }

// OverRouter adapts a federation router fleet as the coordinator's
// upstream, so cross-query sharing composes with sharded deployments:
// fragments the coordinator materializes are themselves planned across
// shards by the router.
func OverRouter(r *federation.Router) Upstream { return tierUpstream{r} }

func (u tierUpstream) Register(name string) (UpstreamSession, error) {
	s, err := u.Backend.Register(name)
	if err != nil {
		return nil, err
	}
	return upSession{s}, nil
}

func (u tierUpstream) Attach(name, token string) (UpstreamSession, []gateway.ResumeInfo, error) {
	s, infos, err := u.Backend.Attach(name, token)
	if err != nil {
		return nil, nil, err
	}
	return upSession{s}, infos, nil
}

// upSession is the kernel's session with the upstream seam's subscribe
// and stream calls.
type upSession struct{ *tier.Session }

func (s upSession) SubscribeAsync(q query.Query) (UpstreamTicket, error) {
	return s.subscribeTraced(q, tracing.Context{})
}

func (s upSession) subscribeTraced(q query.Query, tc tracing.Context) (UpstreamTicket, error) {
	tk, err := s.Session.SubscribeAsync(gateway.SubscribeRequest{Query: q, Trace: tc})
	if err != nil {
		return nil, err
	}
	return upTicket{tk}, nil
}

func (s upSession) UnsubscribeAsync(id gateway.SubID) error {
	_, err := s.Session.UnsubscribeAsync(id)
	return err
}

func (s upSession) Resume(id gateway.SubID, after uint64) (UpstreamSub, error) {
	sub, err := s.Session.Resume(id, after)
	if err != nil {
		return nil, err // a nil *Sub would be a non-nil UpstreamSub
	}
	return sub, nil
}

type upTicket struct{ tk *tier.Ticket }

func (t upTicket) Wait() (UpstreamSub, error) {
	sub, err := t.tk.Wait()
	if err != nil {
		return nil, err
	}
	return sub, nil
}
