package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Overload drills: the resilience layer's chaos scenarios, exercising the
// serving stack's behavior under demand it cannot absorb rather than
// under injected faults.
//
//   - thundering-herd: a burst of clients far larger than the admission
//     bound all subscribe at once over real TCP. The mailbox depth must
//     stay bounded, every shed client must honor the server's retry-after
//     floor, and the backoff re-subscribes must not double-admit — each
//     client ends with exactly one live subscription and an exactly-once
//     stream.
//   - slow-loris: a subscriber stops reading its result stream while
//     holding the connection open. The server's write deadline (or the
//     gateway's slow-consumer eviction, whichever fires first) must drop
//     it, the healthy subscribers must keep progressing, and no forwarder
//     goroutine may stay wedged behind the dead socket.
//   - stuck-shard: one federation shard wedges without crashing. Its
//     circuit breaker must trip, cross-shard queries must keep releasing
//     epochs marked degraded with a coverage fraction (no watermark
//     deadlock), and after the shard un-wedges a half-open probe must
//     close the breaker and return coverage to 1.0.

// OverloadScenarioNames lists the overload drills in study order. Like
// the federation drills they stay out of BuiltinNames: they need a
// TCP server or a router fleet, not a bare gateway.
func OverloadScenarioNames() []string {
	return []string{"thundering-herd", "slow-loris", "stuck-shard"}
}

// ---------------------------------------------------------------------------
// thundering-herd

// HerdConfig parametrizes the thundering-herd drill.
type HerdConfig struct {
	// Seed seeds the world (1 if zero).
	Seed int64
	// Side is the grid side (DefaultSide if zero).
	Side int
	// Clients is the herd size (24 if zero); it should dwarf MaxStaged or
	// the drill is vacuous.
	Clients int
	// MaxStaged is the gateway's admission bound (4 if zero).
	MaxStaged int
	// Epochs is how many fresh epochs each subscriber must receive after
	// the herd clears (2 if zero).
	Epochs int
}

// HerdReport is the outcome of the thundering-herd drill.
type HerdReport struct {
	Scenario  string `json:"scenario"`
	Seed      int64  `json:"seed"`
	Clients   int    `json:"clients"`
	MaxStaged int    `json:"max_staged"`
	// Sheds counts client-observed overload rejections (each one slept
	// through the jittered backoff); StatsSheds the server-side total.
	Sheds      int64 `json:"sheds"`
	StatsSheds int64 `json:"stats_sheds"`
	// MaxStagedSeen is the deepest mailbox observed while the herd ran;
	// the bound invariant is MaxStagedSeen <= MaxStaged.
	MaxStagedSeen int `json:"max_staged_seen"`
	// MinSleepMS is the shortest backoff any shed client slept; the
	// retry-after invariant is MinSleepMS >= the server's hint floor.
	MinSleepMS int64 `json:"min_sleep_ms"`
	// P99SubscribeMS is the 99th-percentile wall-clock time from first
	// subscribe attempt to admission across the herd.
	P99SubscribeMS int64 `json:"p99_subscribe_ms"`
	// Updates / invariant counters over the post-admission streams.
	Updates         int64         `json:"updates"`
	Duplicates      int64         `json:"duplicates"`
	Gaps            int64         `json:"gaps"`
	OrderViolations int64         `json:"order_violations"`
	Stats           gateway.Stats `json:"stats"`
	Violations      []string      `json:"violations,omitempty"`
}

// herdRetryAfter is the drill's shed hint floor, small so retries resolve
// in test time while still being asserted against every observed sleep.
const herdRetryAfter = 10 * time.Millisecond

// RunHerdScenario drives the thundering-herd drill over a real TCP
// server: Clients sockets subscribe simultaneously against a MaxStaged
// admission bound and retry shed rejections with the client backoff
// policy until every one of them is admitted.
func RunHerdScenario(cfg HerdConfig) (*HerdReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Side <= 0 {
		cfg.Side = DefaultSide
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 24
	}
	if cfg.MaxStaged <= 0 {
		cfg.MaxStaged = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 2
	}

	baseline := runtime.NumGoroutine()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{
		Sim:            network.Config{Topo: topo, Scheme: network.TTMQO, Seed: cfg.Seed},
		MaxStaged:      cfg.MaxStaged,
		ShedRetryAfter: herdRetryAfter,
		// Fast hysteresis both ways so the ladder exercises and recovers
		// within the drill's horizon.
		Brownout: resilience.BrownoutConfig{EscalateAfter: 2, RecoverAfter: 2},
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	srv, err := gateway.NewServer(gw, gateway.ServerConfig{
		Addr:      "127.0.0.1:0",
		TickEvery: 10 * time.Millisecond,
		Quantum:   DefaultQuantum,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	rep := &HerdReport{
		Scenario:  "thundering-herd",
		Seed:      cfg.Seed,
		Clients:   cfg.Clients,
		MaxStaged: cfg.MaxStaged,
	}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// Mailbox-depth watcher: samples the gateway's staged depth while the
	// herd runs. admitStage must keep it at or under the bound.
	depthStop := make(chan struct{})
	var depthWG sync.WaitGroup
	var depthMu sync.Mutex
	depthWG.Add(1)
	go func() {
		defer depthWG.Done()
		for {
			select {
			case <-depthStop:
				return
			case <-time.After(2 * time.Millisecond):
				if st, err := gw.Status(); err == nil {
					depthMu.Lock()
					if st.Staged > rep.MaxStagedSeen {
						rep.MaxStagedSeen = st.Staged
					}
					depthMu.Unlock()
				}
			}
		}
	}()

	type herdClient struct {
		check    *StreamChecker
		sheds    int64
		minSleep time.Duration
		latency  time.Duration
		err      error
	}
	pool := queryPool()
	clients := make([]*herdClient, cfg.Clients)
	startGate := make(chan struct{})
	readGate := make(chan struct{})
	var subscribed, done sync.WaitGroup
	for i := range clients {
		hc := &herdClient{check: NewStreamChecker()}
		clients[i] = hc
		subscribed.Add(1)
		done.Add(1)
		go func(i int, hc *herdClient) {
			defer done.Done()
			admitted := false
			defer func() {
				if !admitted {
					subscribed.Done()
				}
			}()
			c, err := gateway.Dial(addr, gateway.ClientConfig{Binary: true, Timeout: 15 * time.Second})
			if err != nil {
				hc.err = err
				return
			}
			defer c.Close()
			if _, err := c.Hello(fmt.Sprintf("herd-%02d", i), ""); err != nil {
				hc.err = err
				return
			}
			<-startGate
			t0 := time.Now()
			_, err = c.SubscribeRetry(pool[i%len(pool)].String(), "h", gateway.RetryConfig{
				Attempts: 400,
				Backoff:  resilience.Backoff{Base: 5 * time.Millisecond, Cap: 50 * time.Millisecond},
				Sleep: func(d time.Duration) {
					hc.sheds++
					if hc.minSleep == 0 || d < hc.minSleep {
						hc.minSleep = d
					}
					time.Sleep(d)
				},
			})
			hc.latency = time.Since(t0)
			if err != nil {
				hc.err = err
				return
			}
			admitted = true
			subscribed.Done()
			<-readGate
			for hc.check.Updates < int64(cfg.Epochs) {
				resp, err := c.Recv()
				if err != nil {
					hc.err = fmt.Errorf("stream read: %w", err)
					return
				}
				if resp.Type != gateway.TypeRows && resp.Type != gateway.TypeAgg {
					continue
				}
				hc.check.Observe(gateway.Update{
					Sub: resp.Sub,
					Seq: resp.Seq,
					At:  sim.Time(resp.AtMS) * sim.Time(time.Millisecond),
				})
			}
		}(i, hc)
	}
	close(startGate)
	subscribed.Wait()
	close(depthStop)
	depthWG.Wait()

	// Every herd member is admitted: the no-double-admit invariant is
	// that the retried subscribes applied exactly once each.
	if st, err := gw.Stats(); err == nil {
		if st.Subscribes != int64(cfg.Clients) {
			violate("subscribes applied = %d, want exactly %d (a shed subscribe double-admitted)", st.Subscribes, cfg.Clients)
		}
		if st.ActiveSubscriptions != cfg.Clients {
			violate("live subscriptions = %d, want %d", st.ActiveSubscriptions, cfg.Clients)
		}
	}
	close(readGate)
	done.Wait()

	check := NewStreamChecker()
	var latencies []time.Duration
	for i, hc := range clients {
		if hc.err != nil {
			violate("client %d: %v", i, hc.err)
			continue
		}
		check.Merge(hc.check)
		rep.Sheds += hc.sheds
		if hc.sheds > 0 && (rep.MinSleepMS == 0 || hc.minSleep.Milliseconds() < rep.MinSleepMS) {
			rep.MinSleepMS = hc.minSleep.Milliseconds()
		}
		latencies = append(latencies, hc.latency)
	}
	if n := len(latencies); n > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P99SubscribeMS = latencies[(n*99+99)/100-1].Milliseconds()
	}
	rep.Updates = check.Updates
	rep.Duplicates = check.Duplicates
	rep.Gaps = check.Gaps
	rep.OrderViolations = check.OrderViolations
	st, err := gw.Stats()
	if err != nil {
		return nil, err
	}
	rep.Stats = st
	rep.StatsSheds = st.ShedQueue + st.ShedDeadline + st.ShedSubs + st.ShedBrownout

	if rep.Sheds == 0 || rep.StatsSheds == 0 {
		violate("herd never overloaded the mailbox (client sheds=%d, server sheds=%d)", rep.Sheds, rep.StatsSheds)
	}
	if rep.MaxStagedSeen > cfg.MaxStaged {
		violate("mailbox depth %d exceeded the %d bound", rep.MaxStagedSeen, cfg.MaxStaged)
	}
	if rep.Sheds > 0 && rep.MinSleepMS < herdRetryAfter.Milliseconds() {
		violate("a shed client slept %dms, under the %v retry-after floor", rep.MinSleepMS, herdRetryAfter)
	}
	if rep.P99SubscribeMS > 30_000 {
		violate("p99 subscribe latency %dms: admission effectively deadlocked", rep.P99SubscribeMS)
	}
	if check.Duplicates > 0 {
		violate("%d duplicate deliveries after backoff re-subscribe", check.Duplicates)
	}
	if check.Gaps > 0 {
		violate("%d skipped sequence numbers", check.Gaps)
	}
	if check.OrderViolations > 0 {
		violate("%d epoch-order regressions", check.OrderViolations)
	}

	if err := srv.Close(); err != nil {
		violate("server close: %v", err)
	}
	if err := gw.Close(); err != nil && err != gateway.ErrClosed {
		violate("gateway close: %v", err)
	}
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		violate("%v", err)
	}
	sort.Strings(rep.Violations)
	return rep, nil
}

// ---------------------------------------------------------------------------
// slow-loris

// LorisConfig parametrizes the slow-loris drill.
type LorisConfig struct {
	// Seed seeds the world (1 if zero).
	Seed int64
	// Side is the grid side (DefaultSide if zero).
	Side int
	// Healthy is the number of well-behaved subscribers that must keep
	// progressing (2 if zero).
	Healthy int
	// Epochs is how many fresh epochs each healthy subscriber must
	// receive while the loris stalls (25 if zero).
	Epochs int
}

// LorisReport is the outcome of the slow-loris drill.
type LorisReport struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Healthy  int    `json:"healthy"`
	// VictimDropped reports that the server terminated the non-reading
	// subscriber's stream; DropReason says how ("evicted" when the
	// gateway's slow-consumer bound fired and the forwarder delivered a
	// closed notice, "severed" when a blocked write hit the write
	// deadline and the whole connection was cut). VictimDropMS is how
	// long after the stall began the drop was observed.
	VictimDropped bool   `json:"victim_dropped"`
	DropReason    string `json:"drop_reason,omitempty"`
	VictimDropMS  int64  `json:"victim_drop_ms"`
	// Updates / invariant counters over the healthy streams.
	Updates         int64         `json:"updates"`
	Duplicates      int64         `json:"duplicates"`
	Gaps            int64         `json:"gaps"`
	OrderViolations int64         `json:"order_violations"`
	Stats           gateway.Stats `json:"stats"`
	Violations      []string      `json:"violations,omitempty"`
}

// RunSlowLorisScenario drives the slow-loris drill: a subscriber that
// stops reading mid-stream must be dropped by the server's write
// deadline (or evicted by the gateway's slow-consumer bound — the races
// are the point) without wedging the fan-out for anyone else.
func RunSlowLorisScenario(cfg LorisConfig) (*LorisReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Side <= 0 {
		cfg.Side = DefaultSide
	}
	if cfg.Healthy <= 0 {
		cfg.Healthy = 2
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 25
	}

	baseline := runtime.NumGoroutine()
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{
		Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: cfg.Seed},
		// A small buffer makes the slow-consumer bound fire in test time
		// once the loris stops reading.
		Buffer: 256,
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	srv, err := gateway.NewServer(gw, gateway.ServerConfig{
		Addr:      "127.0.0.1:0",
		TickEvery: 5 * time.Millisecond,
		// A fat quantum makes each tick deliver a burst of epochs, so the
		// victim's unread backlog fills its socket buffers in test time.
		Quantum:      16 * DefaultQuantum,
		WriteTimeout: 150 * time.Millisecond,
		// The loris goes silent in both directions, so the read deadline
		// is its hard backstop: once it expires the handler cuts the
		// connection loose no matter what the kernel still has queued.
		ReadTimeout: 2 * time.Second,
		ForceJSON:   true, // fat frames fill the loris's buffers faster
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	rep := &LorisReport{Scenario: "slow-loris", Seed: cfg.Seed, Healthy: cfg.Healthy}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	const rowsQuery = "SELECT nodeid, light EPOCH DURATION 2048"

	// The victim speaks raw NDJSON on a shrunken receive buffer: it
	// subscribes, confirms the stream is live, then never reads again.
	vconn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer vconn.Close()
	if tc, ok := vconn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(4096)
	}
	vr := bufio.NewReader(vconn)
	vreq := func(line string) error {
		_ = vconn.SetDeadline(time.Now().Add(5 * time.Second))
		_, err := fmt.Fprintln(vconn, line)
		return err
	}
	vrecv := func() (gateway.Response, error) {
		_ = vconn.SetDeadline(time.Now().Add(10 * time.Second))
		line, err := vr.ReadBytes('\n')
		if err != nil {
			return gateway.Response{}, err
		}
		var resp gateway.Response
		return resp, json.Unmarshal(line, &resp)
	}
	if err := vreq(`{"op":"hello","client":"loris"}`); err != nil {
		return nil, err
	}
	if resp, err := vrecv(); err != nil || resp.Type != gateway.TypeHello {
		return nil, fmt.Errorf("loris hello: %v (%+v)", err, resp)
	}
	if err := vreq(fmt.Sprintf(`{"op":"subscribe","query":%q}`, rowsQuery)); err != nil {
		return nil, err
	}
	live := false
	for !live {
		resp, err := vrecv()
		if err != nil {
			return nil, fmt.Errorf("loris stream never started: %w", err)
		}
		if resp.Type == gateway.TypeError {
			return nil, fmt.Errorf("loris subscribe: %s", resp.Error)
		}
		live = resp.Type == gateway.TypeRows
	}
	stallStart := time.Now() // from here on the loris never reads

	// The healthy subscribers must progress right through the stall.
	type healthy struct {
		check *StreamChecker
		err   error
	}
	hs := make([]*healthy, cfg.Healthy)
	var wg sync.WaitGroup
	for i := range hs {
		h := &healthy{check: NewStreamChecker()}
		hs[i] = h
		wg.Add(1)
		go func(i int, h *healthy) {
			defer wg.Done()
			c, err := gateway.Dial(addr, gateway.ClientConfig{Timeout: 15 * time.Second})
			if err != nil {
				h.err = err
				return
			}
			defer c.Close()
			if _, err := c.Hello(fmt.Sprintf("healthy-%d", i), ""); err != nil {
				h.err = err
				return
			}
			if err := c.Send(gateway.Request{Op: gateway.OpSubscribe, Query: rowsQuery, Tag: "h"}); err != nil {
				h.err = err
				return
			}
			for h.check.Updates < int64(cfg.Epochs) {
				resp, err := c.Recv()
				if err != nil {
					h.err = fmt.Errorf("stream read: %w", err)
					return
				}
				switch resp.Type {
				case gateway.TypeError:
					h.err = fmt.Errorf("subscribe: %s", resp.Error)
					return
				case gateway.TypeRows, gateway.TypeAgg:
					h.check.Observe(gateway.Update{
						Sub: resp.Sub,
						Seq: resp.Seq,
						At:  sim.Time(resp.AtMS) * sim.Time(time.Millisecond),
					})
				}
			}
		}(i, h)
	}
	wg.Wait()

	// Give the stall time to bite: the slow-consumer bound fires within
	// the first ticks, the forwarder's blocked write hits the write
	// deadline shortly after, and by the end of this window the silent
	// victim has also outlived the server's read deadline.
	time.Sleep(2600 * time.Millisecond)

	// The victim's backlog overflowed during the stall window. Drain it:
	// an evicted stream ends in a closed notice (the slow-consumer bound
	// fired, the forwarder stayed unwedged); a blocked-write sever ends
	// in a hard read error. A quiet timeout is NOT proof the conn is
	// still served — a severed socket's FIN can sit behind megabytes of
	// undeliverable zero-window backlog — so a silent stream gets poked
	// with a ping: a closed peer socket answers data with an RST, while
	// a live handler answers with a pong, which IS the violation.
	_ = vconn.SetDeadline(time.Now().Add(2500 * time.Millisecond))
	poked := false
	for !rep.VictimDropped {
		line, err := vr.ReadBytes('\n')
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if poked {
					violate("loris conn neither reset nor answering %v after it stopped reading", time.Since(stallStart))
					break
				}
				poked = true
				_ = vconn.SetDeadline(time.Now().Add(2500 * time.Millisecond))
				if _, err := fmt.Fprintf(vconn, `{"op":"ping"}`+"\n"); err != nil {
					rep.VictimDropped = true
					rep.DropReason = "severed"
					rep.VictimDropMS = time.Since(stallStart).Milliseconds()
				}
				continue
			}
			rep.VictimDropped = true
			rep.DropReason = "severed"
			rep.VictimDropMS = time.Since(stallStart).Milliseconds()
			break
		}
		var resp gateway.Response
		if json.Unmarshal(line, &resp) != nil {
			continue
		}
		switch resp.Type {
		case gateway.TypeClosed:
			rep.VictimDropped = true
			rep.DropReason = resp.Reason
			rep.VictimDropMS = time.Since(stallStart).Milliseconds()
		case gateway.TypePong:
			violate("loris conn still served %v after it stopped reading (ping answered)", time.Since(stallStart))
			rep.DropReason = "served"
		}
		if rep.DropReason == "served" {
			break
		}
	}

	check := NewStreamChecker()
	for i, h := range hs {
		if h.err != nil {
			violate("healthy client %d: %v", i, h.err)
			continue
		}
		check.Merge(h.check)
	}
	rep.Updates = check.Updates
	rep.Duplicates = check.Duplicates
	rep.Gaps = check.Gaps
	rep.OrderViolations = check.OrderViolations
	if check.Duplicates > 0 {
		violate("%d duplicate deliveries on healthy streams", check.Duplicates)
	}
	if check.Gaps > 0 {
		violate("%d skipped sequence numbers on healthy streams", check.Gaps)
	}
	if check.OrderViolations > 0 {
		violate("%d epoch-order regressions on healthy streams", check.OrderViolations)
	}
	if check.Updates < int64(cfg.Healthy*cfg.Epochs) {
		violate("healthy subscribers starved behind the loris: %d updates, want >= %d",
			check.Updates, cfg.Healthy*cfg.Epochs)
	}

	// Close must not hang on a wedged forwarder: that IS the drill.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			violate("server close: %v", err)
		}
	case <-time.After(10 * time.Second):
		violate("server close wedged behind the loris connection")
	}
	if st, err := gw.Stats(); err == nil {
		rep.Stats = st
	}
	if rep.DropReason == "evicted" && rep.Stats.Evicted == 0 {
		violate("victim stream closed as evicted but the gateway counted no evictions")
	}
	if err := gw.Close(); err != nil && err != gateway.ErrClosed {
		violate("gateway close: %v", err)
	}
	vconn.Close()
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		violate("%v", err)
	}
	sort.Strings(rep.Violations)
	return rep, nil
}

// ---------------------------------------------------------------------------
// stuck-shard

// StuckShardConfig parametrizes the stuck-shard drill.
type StuckShardConfig struct {
	// Seed seeds every shard's world (1 if zero).
	Seed int64
	// Shards is the fleet size (DefaultFedShards if zero).
	Shards int
	// Side is each shard's grid side (DefaultFedSide if zero).
	Side int
	// Clients is the number of downstream sessions (DefaultClients if zero).
	Clients int
	// Quantum is the virtual time per round (DefaultQuantum if zero).
	Quantum time.Duration
	// Rounds is the number of advance/drain rounds (DefaultRounds if zero).
	Rounds int
}

// StuckShardReport is the outcome of the stuck-shard drill.
type StuckShardReport struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Shards   int    `json:"shards"`
	Clients  int    `json:"clients"`
	Rounds   int    `json:"rounds"`
	// Updates at the fault and clear rounds bracket the degraded window:
	// UpdatesAtClear > UpdatesAtFault is the no-watermark-deadlock
	// invariant (epochs kept releasing while the shard was wedged).
	Updates        int64 `json:"updates"`
	UpdatesAtFault int64 `json:"updates_at_fault"`
	UpdatesAtClear int64 `json:"updates_at_clear"`
	// DegradedUpdates counts deliveries marked degraded; MinCoverage is
	// the worst coverage fraction they carried.
	DegradedUpdates int64   `json:"degraded_updates"`
	MinCoverage     float64 `json:"min_coverage"`
	// Invariant counters (see StreamChecker).
	Duplicates      int64            `json:"duplicates"`
	Gaps            int64            `json:"gaps"`
	OrderViolations int64            `json:"order_violations"`
	Stats           federation.Stats `json:"stats"`
	Violations      []string         `json:"violations,omitempty"`
}

// Stuck-shard rounds: the wedge lands at stuckFaultRound and clears at
// stuckClearRound; with the drill's TripAfter=2/Cooldown=2 breaker the
// trip, the failed mid-wedge probe, the re-trip and the successful
// post-clear probe all land inside the default 16-round horizon.
const (
	stuckFaultRound = 4
	stuckClearRound = 8
)

// RunStuckShardScenario drives a router fleet through the stuck-shard
// drill: the victim shard stops advancing without crashing (its gateway
// stays alive and reachable), which only the circuit breaker — not the
// crash or partition machinery — can detect and route around.
func RunStuckShardScenario(cfg StuckShardConfig) (*StuckShardReport, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultFedShards
	}
	if cfg.Side <= 0 {
		cfg.Side = DefaultFedSide
	}
	if cfg.Clients <= 0 {
		cfg.Clients = DefaultClients
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultRounds
	}
	if cfg.Rounds <= stuckClearRound+3 {
		return nil, fmt.Errorf("chaos: stuck-shard drill needs more than %d rounds", stuckClearRound+3)
	}

	baseline := runtime.NumGoroutine()
	rt, err := federation.New(federation.Config{
		Shards:  cfg.Shards,
		Side:    cfg.Side,
		Seed:    cfg.Seed,
		Breaker: resilience.BreakerConfig{TripAfter: 2, Cooldown: 2},
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	rep := &StuckShardReport{
		Scenario:    "stuck-shard",
		Seed:        cfg.Seed,
		Shards:      cfg.Shards,
		Clients:     cfg.Clients,
		Rounds:      cfg.Rounds,
		MinCoverage: 1,
	}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	pool := fedQueryPool(cfg.Shards, cfg.Side)
	check := NewStreamChecker()
	var subs []*federation.Sub
	var tickets []*federation.Ticket
	for c := 0; c < cfg.Clients; c++ {
		sess, err := rt.Register(fmt.Sprintf("chaos-%d", c))
		if err != nil {
			return nil, err
		}
		for s := 0; s < 2; s++ {
			tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: pool[(c*2+s)%len(pool)]})
			if err != nil {
				return nil, err
			}
			tickets = append(tickets, tk)
		}
	}
	if _, err := rt.Advance(cfg.Quantum); err != nil {
		return nil, err
	}
	for _, tk := range tickets {
		sub, err := tk.Wait()
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}

	victim := cfg.Shards - 1
	lastDegraded := false
	drainAll := func() {
		for _, sub := range subs {
			for {
				select {
				case u, ok := <-sub.Updates():
					if !ok {
						violate("stream %d closed mid-run (%s)", sub.ID(), sub.Reason())
						return
					}
					if check.Observe(u) {
						lastDegraded = u.Degraded
						if u.Degraded {
							rep.DegradedUpdates++
							if u.Coverage < rep.MinCoverage {
								rep.MinCoverage = u.Coverage
							}
						}
					}
				default:
					return
				}
			}
		}
	}

	for round := 1; round < cfg.Rounds; round++ {
		if round == stuckFaultRound {
			rep.UpdatesAtFault = check.Updates
			if err := rt.StallShard(victim, true); err != nil {
				return nil, err
			}
		}
		if round == stuckClearRound {
			rep.UpdatesAtClear = check.Updates
			if err := rt.StallShard(victim, false); err != nil {
				return nil, err
			}
		}
		if _, err := rt.Advance(cfg.Quantum); err != nil {
			return nil, err
		}
		drainAll()
	}

	rep.Stats = rt.FedStats()
	rep.Updates = check.Updates
	rep.Duplicates = check.Duplicates
	rep.Gaps = check.Gaps
	rep.OrderViolations = check.OrderViolations

	if check.Duplicates > 0 {
		violate("%d duplicate deliveries", check.Duplicates)
	}
	if check.Gaps > 0 {
		violate("%d skipped sequence numbers", check.Gaps)
	}
	if check.OrderViolations > 0 {
		violate("%d epoch-order regressions", check.OrderViolations)
	}
	if rep.UpdatesAtFault == 0 {
		violate("no deliveries before the wedge")
	}
	if rep.UpdatesAtClear <= rep.UpdatesAtFault {
		violate("watermark deadlock: no releases while the shard was wedged (%d then, %d at clear)",
			rep.UpdatesAtFault, rep.UpdatesAtClear)
	}
	if rep.Updates <= rep.UpdatesAtClear {
		violate("no progress after the wedge cleared (%d then, %d now)", rep.UpdatesAtClear, rep.Updates)
	}
	if rep.DegradedUpdates == 0 {
		violate("breaker never produced a degraded release")
	}
	if rep.MinCoverage <= 0 || rep.MinCoverage >= 1 {
		violate("degraded coverage fraction %v outside (0, 1)", rep.MinCoverage)
	}
	if lastDegraded {
		violate("coverage never returned to 1.0 after the probe closed the breaker")
	}
	if rep.Stats.BreakerTrips == 0 {
		violate("breaker never tripped")
	}
	if rep.Stats.BreakerProbes == 0 {
		violate("breaker never probed half-open")
	}
	if rep.Stats.BreakerRecoveries == 0 {
		violate("breaker never recovered")
	}
	if rep.Stats.DegradedEpochs == 0 {
		violate("router released no degraded epochs")
	}
	if rep.Stats.ShardStalls != 1 {
		violate("shard stalls = %d, want 1", rep.Stats.ShardStalls)
	}
	if rep.Stats.StalledShards != 0 {
		violate("%d shard(s) still wedged at end of run", rep.Stats.StalledShards)
	}
	if got := rt.ShardBreaker(victim); got != resilience.BreakerClosed {
		violate("victim breaker %v at end of run, want closed", got)
	}
	for i := 0; i < cfg.Shards; i++ {
		if !rt.ShardAlive(i) {
			violate("shard %d not alive at end of run", i)
		}
	}

	if err := rt.Close(); err != nil && err != gateway.ErrClosed {
		violate("router close: %v", err)
	}
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		violate("%v", err)
	}
	sort.Strings(rep.Violations)
	return rep, nil
}
