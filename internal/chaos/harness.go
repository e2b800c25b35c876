package chaos

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Harness defaults.
const (
	DefaultSide    = 4
	DefaultClients = 4
	DefaultQuantum = 8192 * time.Millisecond
	DefaultRounds  = 16
	// DefaultMinCompleteness is the bounded-loss floor applied when the
	// scenario does not set its own.
	DefaultMinCompleteness = 0.25
)

// RunConfig parametrizes one scenario run of the chaos harness.
type RunConfig struct {
	// Scenario is the fault schedule to drive (required).
	Scenario *Scenario
	// Seed seeds the world (1 if zero); Scenario.Seed overrides it.
	Seed int64
	// Side of the sensor grid (DefaultSide if zero).
	Side int
	// Scheme selects the in-network plan (network.TTMQO if zero).
	Scheme network.Scheme
	// Clients is the number of subscriber sessions (DefaultClients if zero).
	Clients int
	// Quantum is the virtual time per round (DefaultQuantum if zero).
	Quantum time.Duration
	// Rounds is the number of advance/drain rounds; the default covers the
	// scenario's horizon plus four rounds, at least DefaultRounds.
	Rounds int
	// Buffer overrides the gateway's per-subscriber buffer bound.
	Buffer int
	// WALPath enables gateway crash recovery; required when the scenario
	// contains crash steps.
	WALPath string
}

// Report is the outcome of one scenario run. Every field is a pure function
// of the configuration and seed — no wall clock — so reports are
// byte-identical across reruns and parallelism settings.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Clients  int    `json:"clients"`
	Rounds   int    `json:"rounds"`
	// FaultEvents is the number of scheduled fault steps (engine-level
	// injections plus gateway crashes).
	FaultEvents int `json:"fault_events"`
	// Crashes is the number of gateway crash/recover cycles performed;
	// Reconnects the number of client re-attachments they forced.
	Crashes    int   `json:"crashes"`
	Reconnects int64 `json:"reconnects"`
	// Updates/Rows are fresh client-side deliveries; ExpectedRows is the
	// deterministic field's ground truth for the delivered epochs, and
	// Completeness is Rows/ExpectedRows.
	Updates      int64   `json:"updates"`
	Rows         int64   `json:"rows"`
	ExpectedRows int64   `json:"expected_rows"`
	Completeness float64 `json:"completeness"`
	// Invariant counters (see StreamChecker).
	Duplicates      int64 `json:"duplicates"`
	Gaps            int64 `json:"gaps"`
	OrderViolations int64 `json:"order_violations"`
	// Stats is the final gateway counter snapshot.
	Stats gateway.Stats `json:"stats"`
	// ReadyProbes counts the admin /readyz checks performed (crash
	// scenarios only): one before the first round, then one during and one
	// after every crash/recovery cycle. A probe that sees the wrong status
	// — anything but 503 during the outage, anything but 200 once WAL
	// replay finished — is a violation.
	ReadyProbes int `json:"ready_probes"`
	// Violations lists every invariant breach, sorted; empty means the run
	// degraded exactly as promised.
	Violations []string `json:"violations,omitempty"`
}

// hclient is one subscriber session driven by the harness.
type hclient struct {
	name       string
	token      string
	sess       *gateway.Session
	subs       map[gateway.SubID]gateway.ServerSub
	queries    map[gateway.SubID]query.Query
	check      *StreamChecker
	expected   int64
	reconnects int64
	closures   int64 // streams that ended mid-run for a non-crash reason
	jitter     *sim.Rand
}

// queryPool returns the harness's overlapping acquisition workload; clients
// round-robin over it so the gateway's semantic dedup is always in play.
func queryPool() []query.Query {
	return []query.Query{
		query.MustParse("SELECT nodeid, light WHERE light >= 100 AND light <= 900 EPOCH DURATION 4096"),
		query.MustParse("SELECT nodeid, light WHERE light >= 150 AND light <= 850 EPOCH DURATION 8192"),
		query.MustParse("SELECT nodeid, light WHERE light >= 200 EPOCH DURATION 4096"),
	}
}

// RunScenario drives the full serving stack — simulation, gateway, client
// sessions — through one fault scenario in phased rounds: each round stages
// client activity, advances one quantum of virtual time, and drains the
// update streams through the invariant checkers. Crash steps kill the
// gateway at the next round boundary *without* draining first: whatever the
// crash strands in client channels must come back through recovery's resume
// rings, which is precisely the redelivery guarantee under test. Engine-level
// steps (churn, loss, partitions) inject via gateway.Config.OnSim so
// recovery replays them identically.
func RunScenario(cfg RunConfig) (*Report, error) {
	sc := cfg.Scenario
	if sc == nil {
		return nil, fmt.Errorf("chaos: RunConfig.Scenario is required")
	}
	seed := cfg.Seed
	if sc.Seed != 0 {
		seed = sc.Seed
	}
	if seed == 0 {
		seed = 1
	}
	if cfg.Side == 0 {
		cfg.Side = DefaultSide
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = network.TTMQO
	}
	if cfg.Clients <= 0 {
		cfg.Clients = DefaultClients
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = int(sc.Horizon()/cfg.Quantum) + 4
		if cfg.Rounds < DefaultRounds {
			cfg.Rounds = DefaultRounds
		}
	}
	crashes := sc.Crashes()
	if len(crashes) > 0 && cfg.WALPath == "" {
		return nil, fmt.Errorf("chaos: scenario %q has crash steps; RunConfig.WALPath is required", sc.Name)
	}

	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	src := field.New(topo, field.Config{Seed: seed})
	// expect recomputes the ground truth for one delivered epoch from the
	// deterministic field: how many rows a loss-free network would have
	// returned for this query at this instant.
	expect := func(q query.Query, at sim.Time) int64 {
		var n int64
		for i := 1; i < topo.Size(); i++ {
			var vals field.Values
			vals.Set(field.AttrLight, src.Reading(topology.NodeID(i), field.AttrLight, at))
			if q.MatchesValues(&vals) {
				n++
			}
		}
		return n
	}

	gwCfg := gateway.Config{
		Sim: network.Config{
			Topo:   topo,
			Scheme: cfg.Scheme,
			Seed:   seed,
			Source: src,
			Radio:  radio.Config{CollisionFactor: radio.DefaultCollisionFactor},
		},
		Buffer:     cfg.Buffer,
		WALPath:    cfg.WALPath,
		ChaosLabel: sc.Name,
		OnSim:      func(s *network.Simulation) { Inject(s, sc.EngineSteps()) },
	}

	// Crash scenarios get a live admin plane so the readiness transition —
	// 200 before the crash, 503 while the gateway is down, 200 after WAL
	// replay — is asserted as a harness invariant, with the metrics
	// exposition validated at the end of the run. Started before the
	// goroutine baseline so the admin server's accept loop is not counted
	// as a leak; the probe client disables keep-alives for the same reason.
	var cur atomic.Pointer[gateway.Gateway]
	var adm *telemetry.Admin
	var adminURL string
	var probeViolations []string
	probeClient := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	if len(crashes) > 0 {
		reg := telemetry.NewRegistry()
		gateway.RegisterMetrics(reg, cur.Load)
		adm = telemetry.NewAdmin(telemetry.AdminConfig{
			Registry: reg,
			Ready: func() bool {
				g := cur.Load()
				return g != nil && g.Alive()
			},
		})
		addr, err := adm.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("chaos: admin: %w", err)
		}
		defer adm.Close()
		adminURL = "http://" + addr
	}

	baseline := runtime.NumGoroutine()
	gw, err := gateway.New(gwCfg)
	if err != nil {
		return nil, err
	}
	cur.Store(gw)
	closed := false
	defer func() {
		if !closed {
			gw.Close()
		}
	}()

	// Register the clients and stage every initial subscription; the staged
	// batch commits deterministically at the first Advance.
	pool := queryPool()
	clients := make([]*hclient, cfg.Clients)
	type pend struct {
		c *hclient
		q query.Query
		t *gateway.Ticket
	}
	var pending []pend
	for i := range clients {
		c := &hclient{
			name:    fmt.Sprintf("chaos-%02d", i),
			subs:    make(map[gateway.SubID]gateway.ServerSub),
			queries: make(map[gateway.SubID]query.Query),
			check:   NewStreamChecker(),
			jitter:  sim.NewRand(seed + 3000).Fork(int64(i)),
		}
		sess, err := gw.Register(c.name)
		if err != nil {
			return nil, err
		}
		c.sess, c.token = sess, sess.Token()
		clients[i] = c
		q := pool[i%len(pool)]
		t, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: q})
		if err != nil {
			return nil, err
		}
		pending = append(pending, pend{c: c, q: q, t: t})
	}

	// Map each crash instant to the round boundary right after it.
	crashAfter := make([]bool, cfg.Rounds)
	for _, ct := range crashes {
		i := int((ct + cfg.Quantum - 1) / cfg.Quantum) // 1-based round whose end covers ct
		if i < 1 {
			i = 1
		}
		if i > cfg.Rounds {
			i = cfg.Rounds
		}
		crashAfter[i-1] = true
	}

	rep := &Report{
		Scenario:    sc.Name,
		Seed:        seed,
		Clients:     cfg.Clients,
		Rounds:      cfg.Rounds,
		FaultEvents: len(sc.Steps),
	}
	probe := func(phase string, want int) {
		if adm == nil {
			return
		}
		rep.ReadyProbes++
		resp, err := probeClient.Get(adminURL + "/readyz")
		if err != nil {
			probeViolations = append(probeViolations, fmt.Sprintf("readiness: %s probe failed: %v", phase, err))
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			probeViolations = append(probeViolations, fmt.Sprintf("readiness: /readyz %s = %d, want %d", phase, resp.StatusCode, want))
		}
	}
	probe("before first round", http.StatusOK)
	drain := func(c *hclient) {
		for id, sub := range c.subs {
			for {
				done := false
				select {
				case u, ok := <-sub.Updates():
					if !ok {
						// A stream must not end mid-run outside a crash; a
						// closure here means an eviction or similar surprise.
						c.closures++
						delete(c.subs, id)
						done = true
						break
					}
					if c.check.Observe(u) && u.Rows != nil {
						c.expected += expect(c.queries[u.Sub], u.At)
					}
				default:
					done = true
				}
				if done {
					break
				}
			}
		}
	}

	for round := 0; round < cfg.Rounds; round++ {
		if _, err := gw.Advance(cfg.Quantum); err != nil {
			return nil, fmt.Errorf("chaos: advance round %d: %w", round, err)
		}
		if round == 0 {
			for _, p := range pending {
				sub, err := p.t.Wait()
				if err != nil {
					return nil, fmt.Errorf("chaos: subscribe: %w", err)
				}
				p.c.subs[sub.ID()] = sub
				p.c.queries[sub.ID()] = p.q
			}
			pending = nil
		}
		if crashAfter[round] {
			// Kill the gateway with this round's deliveries still sitting
			// undrained in client channels — recovery must bring them back.
			if err := gw.Crash(); err != nil {
				return nil, fmt.Errorf("chaos: crash round %d: %w", round, err)
			}
			rep.Crashes++
			probe(fmt.Sprintf("during crash %d outage", rep.Crashes), http.StatusServiceUnavailable)
			gw, err = gateway.Recover(gwCfg)
			if err != nil {
				return nil, fmt.Errorf("chaos: recover round %d: %w", round, err)
			}
			cur.Store(gw)
			probe(fmt.Sprintf("after recovery %d", rep.Crashes), http.StatusOK)
			errs := make([]error, len(clients))
			var wg sync.WaitGroup
			for ci := range clients {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					errs[ci] = clients[ci].reconnect(gw)
				}(ci)
			}
			wg.Wait()
			for ci, e := range errs {
				if e != nil {
					return nil, fmt.Errorf("chaos: reconnect %s: %w", clients[ci].name, e)
				}
			}
			continue
		}
		for _, c := range clients {
			drain(c)
		}
	}

	// Shut down and drain to the close markers so nothing buffered is
	// missed, then settle the books.
	if err := gw.Close(); err != nil {
		return nil, err
	}
	closed = true
	for _, c := range clients {
		for id, sub := range c.subs {
			for u := range sub.Updates() {
				if c.check.Observe(u) && u.Rows != nil {
					c.expected += expect(c.queries[u.Sub], u.At)
				}
			}
			delete(c.subs, id)
		}
	}

	check := NewStreamChecker()
	var closures int64
	for _, c := range clients {
		check.Merge(c.check)
		rep.Reconnects += c.reconnects
		rep.ExpectedRows += c.expected
		closures += c.closures
	}
	rep.Updates = check.Updates
	rep.Rows = check.Rows
	rep.Duplicates = check.Duplicates
	rep.Gaps = check.Gaps
	rep.OrderViolations = check.OrderViolations
	rep.Completeness = 1
	if rep.ExpectedRows > 0 {
		rep.Completeness = float64(rep.Rows) / float64(rep.ExpectedRows)
	}
	st, err := gw.Stats()
	if err != nil {
		return nil, err
	}
	rep.Stats = st

	minComp := sc.MinCompleteness
	if minComp == 0 {
		minComp = DefaultMinCompleteness
	}
	var v []string
	if rep.Duplicates > 0 {
		v = append(v, fmt.Sprintf("duplicates: %d update(s) delivered twice", rep.Duplicates))
	}
	if rep.Gaps > sc.MaxGaps {
		v = append(v, fmt.Sprintf("gaps: %d sequence number(s) lost, bound %d", rep.Gaps, sc.MaxGaps))
	}
	if rep.OrderViolations > 0 {
		v = append(v, fmt.Sprintf("ordering: %d epoch timestamp regression(s)", rep.OrderViolations))
	}
	if rep.Completeness < minComp {
		v = append(v, fmt.Sprintf("completeness: %.3f below bound %.3f", rep.Completeness, minComp))
	}
	if closures > 0 {
		v = append(v, fmt.Sprintf("closures: %d stream(s) ended mid-run without a crash", closures))
	}
	v = append(v, probeViolations...)
	if adm != nil {
		// One final scrape through the decoder-side validator: a crashed-
		// and-recovered gateway must still serve a well-formed exposition.
		resp, err := probeClient.Get(adminURL + "/metrics")
		if err != nil {
			v = append(v, fmt.Sprintf("metrics: scrape failed: %v", err))
		} else {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				v = append(v, fmt.Sprintf("metrics: scrape read failed: %v", rerr))
			} else if _, perr := telemetry.ParseExposition(string(body)); perr != nil {
				v = append(v, fmt.Sprintf("metrics: malformed exposition: %v", perr))
			}
		}
	}
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		v = append(v, err.Error())
	}
	sort.Strings(v)
	rep.Violations = v
	return rep, nil
}

// reconnect re-claims the client's session on a recovered gateway and
// resumes every stream from its last processed sequence number, with capped
// exponential backoff between attach attempts.
func (c *hclient) reconnect(gw *gateway.Gateway) error {
	const maxAttempts = 8
	var (
		sess  *gateway.Session
		infos []gateway.ResumeInfo
		err   error
	)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			d := time.Duration(1<<uint(attempt)) * time.Millisecond
			if d > 100*time.Millisecond {
				d = 100 * time.Millisecond
			}
			time.Sleep(d + time.Duration(c.jitter.Float64()*float64(d)/2))
		}
		sess, infos, err = gw.Attach(c.name, c.token)
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("attach after %d attempts: %w", maxAttempts, err)
	}
	c.sess = sess
	c.reconnects++
	subs := make(map[gateway.SubID]gateway.ServerSub, len(infos))
	for _, in := range infos {
		sub, rerr := sess.Resume(in.ID, c.check.Last(in.ID))
		if rerr != nil {
			return fmt.Errorf("resume sub %d: %w", in.ID, rerr)
		}
		subs[in.ID] = sub
	}
	c.subs = subs
	return nil
}
