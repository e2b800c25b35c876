package gateway

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// LoadgenConfig parametrizes RunLoadgen.
type LoadgenConfig struct {
	// Clients is the number of concurrent client goroutines (default 100).
	Clients int
	// Rounds is the number of churn rounds; each round is one Advance of
	// Quantum virtual time (default 24).
	Rounds int
	// Quantum is the virtual time per round (default 8192ms).
	Quantum time.Duration
	// Pool is the number of distinct queries clients draw from (default
	// 12). Clients per-subscription permute attribute and predicate order,
	// so the semantic dedup cache — not textual equality — is what maps
	// them back together.
	Pool int
	// Churn is the per-round probability that a client changes its
	// subscription set (default 0.35).
	Churn float64
	// MaxSubs caps each client's concurrent subscriptions (default 2).
	MaxSubs int
	// Seed drives the simulation, the query pool and every client's
	// decisions.
	Seed int64
	// Side is the deployment grid side (default 4, i.e. 16 nodes).
	Side int
	// Scheme is the optimization scheme (default TTMQO).
	Scheme network.Scheme
	// Buffer overrides the per-subscriber buffer bound (gateway default
	// when 0).
	Buffer int
	// Sample attaches a virtual-time metrics series when positive.
	Sample time.Duration
	// CrashRound, when in [1, Rounds), crashes the gateway at the start of
	// that round and recovers it from WALPath; every client then reconnects
	// (capped exponential backoff with jitter) and resumes its streams from
	// its last-seen sequence numbers. Zero disables the crash.
	CrashRound int
	// WALPath is the write-ahead log used when CrashRound is set (and
	// enables recovery logging even without a crash).
	WALPath string
	// OnGateway, when non-nil, is invoked with each gateway the run drives:
	// the initial one before round 0, and the recovered one right after a
	// CrashRound replay. Callers use it to point a live telemetry admin
	// plane (readiness probes, metric gather hooks) at the current gateway.
	OnGateway func(*Gateway)
}

func (cfg *LoadgenConfig) defaults() {
	if cfg.Clients <= 0 {
		cfg.Clients = 100
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 24
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 8192 * time.Millisecond
	}
	if cfg.Pool <= 0 {
		cfg.Pool = 12
	}
	if cfg.Churn <= 0 {
		cfg.Churn = 0.35
	}
	if cfg.MaxSubs <= 0 {
		cfg.MaxSubs = 2
	}
	if cfg.Side <= 0 {
		cfg.Side = 4
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = network.TTMQO
	}
}

// LoadReport is the outcome of one load-generator run. Export (and
// everything reachable from it) is deterministic for a given config;
// the latency and throughput figures are wall-clock observations.
type LoadReport struct {
	Config    LoadgenConfig
	Stats     Stats
	Export    obs.RunExport
	Latency   stats.Quantiles
	Wall      time.Duration
	Simulated time.Duration
	// SubscribeErrs counts client subscribe attempts rejected by admission
	// control (rate limit or quota) during the run.
	SubscribeErrs int64
	// Reconnects counts successful client re-attachments after the
	// CrashRound crash (0 when no crash was configured).
	Reconnects int64
}

// Throughput returns fanned-out updates per wall-clock second.
func (r *LoadReport) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Stats.Updates) / r.Wall.Seconds()
}

// String renders the human-readable summary the load generator prints.
func (r *LoadReport) String() string {
	var sb strings.Builder
	st := r.Stats
	fmt.Fprintf(&sb, "loadgen: clients=%d rounds=%d quantum=%v pool=%d seed=%d scheme=%s nodes=%d\n",
		r.Config.Clients, r.Config.Rounds, r.Config.Quantum, r.Config.Pool,
		r.Config.Seed, r.Config.Scheme, r.Config.Side*r.Config.Side)
	fmt.Fprintf(&sb, "simulated=%v wall=%v\n", r.Simulated, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&sb, "subscribes=%d unsubscribes=%d rejected=%d dedup_hits=%d admitted=%d dedup_ratio=%.2f\n",
		st.Subscribes, st.Unsubscribes, r.SubscribeErrs, st.DedupHits, st.Admitted, st.DedupRatio())
	fmt.Fprintf(&sb, "epochs=%d updates=%d dropped=%d evicted=%d throughput=%.0f updates/s\n",
		st.Epochs, st.Updates, st.Dropped, st.Evicted, r.Throughput())
	if r.Config.CrashRound > 0 {
		fmt.Fprintf(&sb, "crash: round=%d recoveries=%d reconnects=%d resumes=%d resume_gaps=%d\n",
			r.Config.CrashRound, st.Recoveries, r.Reconnects, st.Resumes, st.ResumeGaps)
	}
	fmt.Fprintf(&sb, "client latency: p50=%.2fms p95=%.2fms p99=%.2fms (n=%d)\n",
		r.Latency.P50(), r.Latency.P95(), r.Latency.P99(), r.Latency.N())
	return sb.String()
}

// lgClient is one synthetic subscriber's state, owned by its goroutine
// between barriers.
type lgClient struct {
	sess    *Session
	rng     *sim.Rand
	jitter  *sim.Rand // backoff jitter; separate so retries never skew churn decisions
	subs    []ServerSub
	pending []lgPending
	// lastSeen is the per-subscription resume cursor: the highest sequence
	// number this client has processed on each stream.
	lastSeen   map[SubID]uint64
	lat        stats.Quantiles
	errs       int64
	reconnects int64
}

type lgPending struct {
	ticket *Ticket
	unsub  ServerSub // nil for subscribes
}

// RunLoadgen drives Clients concurrent goroutines of seeded subscription
// churn through a fresh gateway in phased rounds: every round the clients
// concurrently stage their commands, the coordinator commits them with one
// Advance of virtual time, and the clients drain their result buffers and
// record client-observed latency. The phasing means each round's command
// set is fully staged before its tick, so the group-commit ordering makes
// the returned Export byte-identical for a given config regardless of
// goroutine scheduling — the serving-tier analogue of the repository's
// parallel-sweep determinism.
func RunLoadgen(cfg LoadgenConfig) (*LoadReport, error) {
	cfg.defaults()
	if cfg.CrashRound > 0 && cfg.WALPath == "" {
		return nil, fmt.Errorf("loadgen: CrashRound requires WALPath")
	}
	topo, err := topology.PaperGrid(cfg.Side)
	if err != nil {
		return nil, err
	}
	gwCfg := Config{
		Sim: network.Config{
			Topo:   topo,
			Scheme: cfg.Scheme,
			Seed:   cfg.Seed,
		},
		Buffer:       cfg.Buffer,
		SessionQuota: cfg.MaxSubs + 2,
		Sample:       cfg.Sample,
		WALPath:      cfg.WALPath,
	}
	gw, err := New(gwCfg)
	if err != nil {
		return nil, err
	}
	defer func() { gw.Close() }()
	if cfg.OnGateway != nil {
		cfg.OnGateway(gw)
	}

	// The shared pool of distinct query shapes; ID 0 so the simulation
	// assigns network identities on admission.
	pool := make([]query.Query, 0, cfg.Pool)
	for _, tq := range workload.Random(workload.RandomConfig{
		Seed:       cfg.Seed + 7777,
		NumQueries: cfg.Pool,
	}) {
		q := tq.Query
		q.ID = 0
		pool = append(pool, q)
	}

	clients := make([]*lgClient, cfg.Clients)
	var wg sync.WaitGroup
	var regErr error
	var regMu sync.Mutex
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := gw.Register(fmt.Sprintf("client-%05d", i))
			if err != nil {
				regMu.Lock()
				regErr = err
				regMu.Unlock()
				return
			}
			clients[i] = &lgClient{
				sess:     sess,
				rng:      sim.NewRand(cfg.Seed + 1000).Fork(int64(i)),
				jitter:   sim.NewRand(cfg.Seed + 2000).Fork(int64(i)),
				lastSeen: make(map[SubID]uint64),
			}
		}(i)
	}
	wg.Wait()
	if regErr != nil {
		return nil, regErr
	}

	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.CrashRound > 0 && round == cfg.CrashRound {
			// Kill the gateway mid-run and bring it back from the WAL; the
			// clients reconnect with their session tokens and resume every
			// stream from its last-seen sequence number.
			if err := gw.Crash(); err != nil {
				return nil, err
			}
			gw, err = Recover(gwCfg)
			if err != nil {
				return nil, err
			}
			if cfg.OnGateway != nil {
				cfg.OnGateway(gw)
			}
			var recErr error
			var recMu sync.Mutex
			for _, c := range clients {
				wg.Add(1)
				go func(c *lgClient) {
					defer wg.Done()
					if err := c.reconnect(gw); err != nil {
						recMu.Lock()
						recErr = err
						recMu.Unlock()
					}
				}(c)
			}
			wg.Wait()
			if recErr != nil {
				return nil, recErr
			}
		}

		// Phase A: every client stages this round's commands concurrently.
		for _, c := range clients {
			wg.Add(1)
			go func(c *lgClient) {
				defer wg.Done()
				c.stage(cfg, pool, round)
			}(c)
		}
		wg.Wait()

		// Commit + simulate: the single deterministic tick.
		if _, err := gw.Advance(cfg.Quantum); err != nil {
			return nil, err
		}

		// Phase B: clients resolve their tickets and drain their buffers.
		for _, c := range clients {
			wg.Add(1)
			go func(c *lgClient) {
				defer wg.Done()
				c.resolveAndDrain()
			}(c)
		}
		wg.Wait()
	}
	wall := time.Since(start)

	st, err := gw.Stats()
	if err != nil {
		return nil, err
	}
	exp, err := gw.Export()
	if err != nil {
		return nil, err
	}
	rep := &LoadReport{
		Config:    cfg,
		Stats:     st,
		Export:    exp,
		Wall:      wall,
		Simulated: time.Duration(cfg.Rounds) * cfg.Quantum,
	}
	for _, c := range clients {
		rep.Latency.Merge(&c.lat)
		rep.SubscribeErrs += c.errs
		rep.Reconnects += c.reconnects
	}
	return rep, nil
}

// reconnectBackoff is the delay before reconnect attempt n (0-based):
// exponential from 5ms, capped at 500ms, plus up to 50% uniform jitter so
// a herd of reconnecting clients spreads out.
func reconnectBackoff(n int, rng *sim.Rand) time.Duration {
	d := 5 * time.Millisecond
	for i := 0; i < n && d < 500*time.Millisecond; i++ {
		d *= 2
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d + time.Duration(rng.Float64()*float64(d)/2)
}

// reconnect re-attaches one client to a recovered gateway and resumes every
// stream exactly after the last sequence number the client processed.
// Attach failures retry with capped exponential backoff and jitter instead
// of aborting the client.
func (c *lgClient) reconnect(gw *Gateway) error {
	const maxAttempts = 8
	var sess *Session
	var infos []ResumeInfo
	for attempt := 0; ; attempt++ {
		var err error
		sess, infos, err = gw.Attach(c.sess.Name(), c.sess.Token())
		if err == nil {
			break
		}
		if attempt+1 >= maxAttempts {
			return fmt.Errorf("loadgen: reconnect %s: %w", c.sess.Name(), err)
		}
		time.Sleep(reconnectBackoff(attempt, c.jitter))
	}
	c.sess = sess
	c.reconnects++
	subs := make([]ServerSub, 0, len(infos))
	for _, in := range infos {
		sub, err := sess.Resume(in.ID, c.lastSeen[in.ID])
		if err != nil {
			return fmt.Errorf("loadgen: resume %s/%d: %w", c.sess.Name(), in.ID, err)
		}
		subs = append(subs, sub)
	}
	c.subs = subs
	return nil
}

// stage issues this round's commands for one client: round 0 always
// subscribes; later rounds churn with probability cfg.Churn, subscribing
// when below MaxSubs (or on a coin flip) and unsubscribing otherwise.
func (c *lgClient) stage(cfg LoadgenConfig, pool []query.Query, round int) {
	subscribe := false
	unsubscribe := false
	switch {
	case round == 0:
		subscribe = true
	case c.rng.Float64() < cfg.Churn:
		if len(c.subs) == 0 {
			subscribe = true
		} else if len(c.subs) < cfg.MaxSubs && c.rng.Float64() < 0.5 {
			subscribe = true
		} else {
			unsubscribe = true
		}
	}
	if subscribe {
		q := c.variant(pool[c.rng.Intn(len(pool))])
		if t, err := c.sess.SubscribeAsync(SubscribeRequest{Query: q}); err == nil {
			c.pending = append(c.pending, lgPending{ticket: t})
		} else {
			c.errs++
		}
	}
	if unsubscribe {
		sub := c.subs[c.rng.Intn(len(c.subs))]
		if t, err := c.sess.UnsubscribeAsync(sub.ID()); err == nil {
			c.pending = append(c.pending, lgPending{ticket: t, unsub: sub})
		}
	}
}

// variant perturbs the textual form of a pool query without changing its
// meaning — reversed attribute lists, duplicated predicates — so the dedup
// cache is exercised on semantics, not string equality.
func (c *lgClient) variant(q query.Query) query.Query {
	v := q.Clone()
	if len(v.Attrs) > 1 && c.rng.Float64() < 0.5 {
		for i, j := 0, len(v.Attrs)-1; i < j; i, j = i+1, j-1 {
			v.Attrs[i], v.Attrs[j] = v.Attrs[j], v.Attrs[i]
		}
	}
	if len(v.Preds) > 0 && c.rng.Float64() < 0.5 {
		// A repeated predicate intersects to itself under normalization.
		v.Preds = append(v.Preds, v.Preds[0])
	}
	return v
}

// resolveAndDrain commits the round for one client: collect ticket
// outcomes, then drain every live subscription's buffer, recording
// client-observed latency (fan-out enqueue to client receive).
func (c *lgClient) resolveAndDrain() {
	for _, p := range c.pending {
		sub, err := p.ticket.Wait()
		switch {
		case p.unsub != nil:
			if err == nil {
				c.dropSub(p.unsub)
			}
		case err != nil:
			c.errs++
		default:
			c.subs = append(c.subs, sub)
		}
	}
	c.pending = c.pending[:0]

	now := time.Now()
	live := c.subs[:0]
	for _, sub := range c.subs {
		open, ch := true, sub.Updates()
	drain:
		for {
			select {
			case u, ok := <-ch:
				if !ok {
					open = false
					break drain
				}
				c.lastSeen[u.Sub] = u.Seq
				c.lat.Add(float64(now.Sub(u.Enqueued)) / float64(time.Millisecond))
			default:
				break drain
			}
		}
		if open {
			live = append(live, sub)
		}
	}
	c.subs = live
}

func (c *lgClient) dropSub(sub ServerSub) {
	// Drain whatever was buffered before the unsubscribe committed; the
	// channel is already closed, so this terminates.
	for u := range sub.Updates() {
		c.lastSeen[u.Sub] = u.Seq
		c.lat.Add(float64(time.Since(u.Enqueued)) / float64(time.Millisecond))
	}
	for i, x := range c.subs {
		if x == sub {
			c.subs = append(c.subs[:i], c.subs[i+1:]...)
			return
		}
	}
}
