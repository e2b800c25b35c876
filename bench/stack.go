package main

import (
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/share"
	"repro/internal/topology"
)

// Admission limits sized to the load. Shard gateways presize their tables
// by MaxSessions*SessionQuota, so the defaults (4096*16) would cost
// gigabytes and seconds of set-up on a 4-shard router.
const (
	maxSessions = 8
	// openRate lifts the per-session subscribe token bucket out of the way:
	// set-up subscribes at virtual t=0, where the default bucket (burst 32,
	// refilled by virtual time) would reject the 33rd subscribe.
	openRate = 1e9
)

// stack is one workload's serving stack, built in-process behind a real
// TCP server whose own pacer is parked.
type stack struct {
	backend gateway.Backend
	srv     *gateway.Server
	// closers run in order on teardown: backends before the server, as
	// cmd/ttmqo-serve drains, so a handler blocked on a staged subscribe
	// returns.
	closers []func() error

	// sims are the simulations under the stack (one, or one per shard).
	// They are read only between Advance calls.
	sims   []*network.Simulation
	router *federation.Router
	coord  *share.Coordinator
}

// buildStack builds the workload's stack. With tr non-nil the seam between
// coordinator and router is decorated to record spans.
func buildStack(s *spec, seed int64, tr *tracer) (*stack, error) {
	st := &stack{}
	quota := s.subsPerConn + 8 // standing subscriptions plus probes in flight
	switch s.stack {
	case stackGateway:
		topo, err := topology.PaperGrid(s.side)
		if err != nil {
			return nil, err
		}
		gw, err := gateway.New(gateway.Config{
			Sim:          network.Config{Topo: topo, Scheme: network.TTMQO, Seed: seed},
			MaxSessions:  maxSessions,
			SessionQuota: quota,
			Rate:         openRate,
			Burst:        openRate,
			OnSim:        func(sm *network.Simulation) { st.sims = append(st.sims, sm) },
		})
		if err != nil {
			return nil, err
		}
		st.backend = gw
		st.closers = append(st.closers, gw.Close)
	case stackFull:
		st.sims = make([]*network.Simulation, fullShards)
		rt, err := federation.New(federation.Config{
			Shards: fullShards,
			Side:   fullSide,
			Seed:   seed,
			// The router's clients are the coordinator's upstream sessions:
			// one per UpstreamQuota (16) live fragments.
			MaxSessions:  32,
			SessionQuota: gateway.DefaultSessionQuota,
			Rate:         openRate,
			Burst:        openRate,
			OnShardSim:   func(i int, sm *network.Simulation) { st.sims[i] = sm },
		})
		if err != nil {
			return nil, err
		}
		up := share.OverRouter(rt)
		if tr != nil {
			rt.SetMergeObserver(tr.observeMerge)
			up = tracedUpstream{Upstream: up, tr: tr}
		}
		coord, err := share.New(share.Config{
			Upstream:     up,
			Sensors:      fullSensors,
			MaxSessions:  maxSessions,
			SessionQuota: quota,
		})
		if err != nil {
			_ = rt.Close()
			return nil, err
		}
		st.backend, st.router, st.coord = coord, rt, coord
		st.closers = append(st.closers, coord.Close, rt.Close)
	}
	srv, err := gateway.NewServer(st.backend, gateway.ServerConfig{
		Addr:        "127.0.0.1:0",
		TickEvery:   time.Hour, // parked: the driver is the only caller of Advance
		ReadTimeout: -1,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.srv = srv
	return st, nil
}

func (st *stack) close() {
	for _, c := range st.closers {
		_ = c()
	}
	if st.srv != nil {
		_ = st.srv.Close()
	}
}

// radioTotals sums the radio ledger over the stack's simulations.
type radioTotals struct {
	msgs, retrans int64
	bytes         int64
	airtime       time.Duration
}

func (st *stack) radio() radioTotals {
	var t radioTotals
	for _, sm := range st.sims {
		m := sm.Metrics()
		t.msgs += int64(m.Messages())
		t.retrans += int64(m.Retransmissions())
		t.bytes += m.Bytes()
		t.airtime += m.TotalTxTime()
	}
	return t
}

func (a radioTotals) sub(b radioTotals) radioTotals {
	return radioTotals{a.msgs - b.msgs, a.retrans - b.retrans, a.bytes - b.bytes, a.airtime - b.airtime}
}
