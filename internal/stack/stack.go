// Package stack wires the serving tiers into one deployment. The four
// shapes — a gateway, a router over K region-sharded gateways, and the
// sharing coordinator on top of either — are built here and nowhere else:
// callers describe the shape and hand over the tiers' own configs, and stop
// knowing which constructors run in which order, how a coordinator's
// upstream and sensor id space are derived, the drain order, and how a
// crashed gateway's successor is re-pointed at the tier above it.
package stack

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/share"
	"repro/internal/telemetry"
)

// Spec describes one deployment: its shape, then each tier's own Config.
type Spec struct {
	// Shards > 0 fronts that many region-sharded gateways with a federation
	// router built from Router (Router.Shards is filled in); 0 is the single
	// gateway built from Gateway.
	Shards int
	// Share tops the stack with the sharing coordinator built from Coord
	// (Coord.Upstream and Coord.Sensors are filled in).
	Share bool

	Gateway gateway.Config
	Router  federation.Config
	Coord   share.Config
}

// Stack is a built deployment. Router and Coord are nil on the shapes that
// lack them; Gateway is nil on the sharded ones.
type Stack struct {
	Router *federation.Router
	Coord  *share.Coordinator
	// Sims are the simulations under the stack — one, or one per shard —
	// replaced when Recover replays one. Read them only between Advances.
	Sims []*network.Simulation

	// gw is the single gateway; Recover swaps it, so every reader goes
	// through the pointer. gwCfg is what it is rebuilt from.
	gw    atomic.Pointer[gateway.Gateway]
	gwCfg gateway.Config
}

// Build assembles the deployment spec describes. A single gateway whose WAL
// holds a previous run's log is recovered from it by replay instead of
// started fresh (its Stats then report Recoveries > 0).
func Build(spec Spec) (*Stack, error) {
	s := &Stack{}
	var up share.Upstream
	if spec.Shards > 0 {
		cfg := spec.Router
		cfg.Shards = spec.Shards
		s.Sims = make([]*network.Simulation, spec.Shards)
		hook := cfg.OnShardSim
		cfg.OnShardSim = func(i int, sm *network.Simulation) {
			s.Sims[i] = sm
			if hook != nil {
				hook(i, sm)
			}
		}
		rt, err := federation.New(cfg)
		if err != nil {
			return nil, err
		}
		s.Router, up = rt, share.OverRouter(rt)
	} else {
		s.gwCfg = spec.Gateway
		s.Sims = make([]*network.Simulation, 1)
		hook := s.gwCfg.OnSim
		s.gwCfg.OnSim = func(sm *network.Simulation) {
			s.Sims[0] = sm
			if hook != nil {
				hook(sm)
			}
		}
		gw, err := openGateway(s.gwCfg)
		if err != nil {
			return nil, err
		}
		s.gw.Store(gw)
		up = share.OverGateway(gw)
	}
	if !spec.Share {
		return s, nil
	}
	cfg := spec.Coord
	cfg.Upstream, cfg.Sensors = up, s.Sensors()
	coord, err := share.New(cfg)
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	s.Coord = coord
	return s, nil
}

func openGateway(cfg gateway.Config) (*gateway.Gateway, error) {
	if fi, err := os.Stat(cfg.WALPath); cfg.WALPath == "" || err != nil || fi.Size() == 0 {
		return gateway.New(cfg)
	}
	gw, err := gateway.Recover(cfg)
	if err != nil {
		return nil, fmt.Errorf("recover %s: %w", cfg.WALPath, err)
	}
	return gw, nil
}

// Sensors is the deployment's sensor id space 1..Sensors: every
// simulation's nodes but its base station.
func (s *Stack) Sensors() int {
	n := 0
	for _, sm := range s.Sims {
		n += sm.Topology().Size() - 1
	}
	return n
}

// Gateway returns the single gateway as of the last Recover; nil when
// sharded.
func (s *Stack) Gateway() *gateway.Gateway { return s.gw.Load() }

// Top returns the tier clients talk to: the coordinator, else the router,
// else the current gateway.
func (s *Stack) Top() gateway.Backend {
	switch {
	case s.Coord != nil:
		return s.Coord
	case s.Router != nil:
		return s.Router
	}
	return s.gw.Load()
}

// Alive reports whether the top tier is serving: the readiness signal
// behind an admin plane's /readyz.
func (s *Stack) Alive() bool { return s.Top().Alive() }

// RegisterMetrics mounts the metric families of every tier the shape has,
// bottom-up. The gateway's read through Gateway, so they follow a Recover.
func (s *Stack) RegisterMetrics(reg *telemetry.Registry) {
	if s.Router != nil {
		federation.RegisterMetrics(reg, func() *federation.Router { return s.Router })
	} else {
		gateway.RegisterMetrics(reg, s.Gateway)
	}
	if s.Coord != nil {
		share.RegisterMetrics(reg, func() *share.Coordinator { return s.Coord })
	}
}

// Crash kills simulation host i abruptly, leaving its WAL behind: shard i
// of a router, or the single gateway (i is ignored).
func (s *Stack) Crash(i int) error {
	if s.Router != nil {
		return s.Router.CrashShard(i)
	}
	return s.gw.Load().Crash()
}

// Recover rebuilds what Crash(i) killed from its WAL by deterministic
// replay and re-points the tier above it: a router resumes the shard's
// upstream streams in place, a coordinator re-attaches its fragment sessions
// to the new gateway.
func (s *Stack) Recover(i int) error {
	if s.Router != nil {
		return s.Router.RecoverShard(i)
	}
	gw, err := gateway.Recover(s.gwCfg)
	if err != nil {
		return err
	}
	s.gw.Store(gw)
	if s.Coord != nil {
		return s.Coord.Reattach(share.OverGateway(gw))
	}
	return nil
}

// Close drains the tiers top-down — coordinator, then the tier beneath it —
// so staged commands fail and connection handlers unblock before a caller
// closes its listener. It returns the first error.
func (s *Stack) Close() error {
	var first error
	closeTier := func(c interface{ Close() error }) {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.Coord != nil {
		closeTier(s.Coord)
	}
	if s.Router != nil {
		closeTier(s.Router)
	} else if gw := s.gw.Load(); gw != nil {
		closeTier(gw)
	}
	return first
}
