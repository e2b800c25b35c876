package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/tier"
	"repro/internal/tracing"
)

// What every drill shares; the rest is a constant beside its table entry.
const (
	defaultClients = 4
	defaultRounds  = 16
	// defaultQuantum is the virtual time one round advances, unless the
	// drill sets its own.
	defaultQuantum = 8192 * time.Millisecond
	// minCompleteness is the bounded-loss floor applied when a script does
	// not set its own.
	minCompleteness = 0.25
)

// Config parametrizes one drill run: only what some caller varies.
type Config struct {
	// Seed seeds the world (1 if zero); a Script's own seed overrides it.
	Seed int64
	// Side is the grid side of the gateway's network, or of each shard's
	// (the drill's own default if zero).
	Side int
	// Clients is the number of subscriber sessions (the drill's own default
	// if zero).
	Clients int
	// Rounds is the number of advance/drain rounds (defaultRounds if zero;
	// a script's horizon plus four if that is longer). It must leave the
	// drill room to observe recovery after its last action.
	Rounds int
	// WALDir is the directory for the write-ahead logs (created if missing);
	// required by every drill that crashes something it must then recover.
	WALDir string
	// Window is the sharing coordinator's result-cache depth in epochs
	// (share.DefaultWindow if zero).
	Window int
	// Script is the fault schedule ScriptDrill runs.
	Script *Scenario
}

// Report is the outcome of one drill. For the round-driven drills every
// field is a pure function of drill, configuration and seed — no wall clock
// — so reports are byte-identical across reruns and parallelism settings;
// the two socket drills (thundering-herd, slow-loris) run on wall time.
type Report struct {
	// Scenario is the drill's name (a script's own name under ScriptDrill).
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Clients  int    `json:"clients"`
	Rounds   int    `json:"rounds,omitempty"`

	// Updates/Rows are fresh client-side deliveries; the invariant counters
	// are the StreamChecker's.
	Updates         int64 `json:"updates"`
	Rows            int64 `json:"rows"`
	Duplicates      int64 `json:"duplicates"`
	Gaps            int64 `json:"gaps"`
	OrderViolations int64 `json:"order_violations"`
	// ValueMismatches counts deliveries that carried a wrong value: on the
	// gateway shape, a row whose reading differs from the deterministic
	// field's at that node and instant, fails its query's predicate, or
	// repeats a node within one epoch; under the sharing coordinator, a
	// (query, epoch) observed with content other than its first delivery's.
	ValueMismatches int64 `json:"value_mismatches"`
	// ExpectedRows is the deterministic field's ground truth for the
	// delivered acquisition epochs and Completeness is Rows/ExpectedRows
	// (1 when the drill's workload has no such ground truth).
	ExpectedRows int64   `json:"expected_rows"`
	Completeness float64 `json:"completeness"`

	// FaultEvents is a script's scheduled steps (engine-level injections
	// plus gateway crashes); Crashes the crashes performed, Reconnects the
	// client re-attachments they forced.
	FaultEvents int   `json:"fault_events"`
	Crashes     int   `json:"crashes"`
	Reconnects  int64 `json:"reconnects"`
	// ReadyProbes counts the admin /readyz checks of a script with crash
	// steps: one before the first round, then one during and one after every
	// crash/recovery cycle. A probe that sees the wrong status — anything
	// but 503 during the outage, anything but 200 once WAL replay finished
	// — is a violation.
	ReadyProbes int `json:"ready_probes"`
	// UpdatesAtFault and UpdatesAtClear are the delivery cursor when the
	// drill's fault landed and when it cleared.
	UpdatesAtFault int64 `json:"updates_at_fault"`
	UpdatesAtClear int64 `json:"updates_at_clear"`
	// LateReplayed counts the epochs a mid-outage subscriber replayed from
	// the result cache before recovery.
	LateReplayed int64 `json:"late_replayed"`
	// DegradedUpdates counts deliveries marked degraded; MinCoverage is the
	// worst coverage fraction they carried (1 when none was).
	DegradedUpdates int64   `json:"degraded_updates"`
	MinCoverage     float64 `json:"min_coverage"`

	// thundering-herd: Sheds counts client-observed overload rejections
	// (each one slept through the jittered backoff), StatsSheds the
	// server-side total; MaxStagedSeen is the deepest mailbox observed,
	// MinSleepMS the shortest backoff any shed client slept, P99SubscribeMS
	// the 99th-percentile wall time from first attempt to admission.
	Sheds          int64 `json:"sheds,omitempty"`
	StatsSheds     int64 `json:"stats_sheds,omitempty"`
	MaxStagedSeen  int   `json:"max_staged_seen,omitempty"`
	MinSleepMS     int64 `json:"min_sleep_ms,omitempty"`
	P99SubscribeMS int64 `json:"p99_subscribe_ms,omitempty"`
	// slow-loris: VictimDropped reports that the server terminated the
	// non-reading subscriber's stream; DropReason says how ("evicted" when
	// the forwarder delivered a closed notice, "severed" when the connection
	// was cut); VictimDropMS is how long after the stall began.
	VictimDropped bool   `json:"victim_dropped,omitempty"`
	DropReason    string `json:"drop_reason,omitempty"`
	VictimDropMS  int64  `json:"victim_drop_ms,omitempty"`

	// The study drills (ShareCell, FederationCell): Sensors is the stack's
	// sensor count and Messages the tier-1 radio messages its network
	// injected; Cold/LateTTFR* are the nearest-rank p50/p95 of virtual ms
	// from subscribe to first delivery for the cold and the late subscribers.
	Sensors      int     `json:"sensors,omitempty"`
	Messages     int64   `json:"messages,omitempty"`
	ColdTTFR50MS float64 `json:"cold_ttfr50_ms,omitempty"`
	ColdTTFR95MS float64 `json:"cold_ttfr95_ms,omitempty"`
	LateTTFR50MS float64 `json:"late_ttfr50_ms,omitempty"`
	LateTTFR95MS float64 `json:"late_ttfr95_ms,omitempty"`

	// The final counter snapshot of each tier the drill's stack has.
	Gateway *gateway.Stats    `json:"gateway,omitempty"`
	Router  *federation.Stats `json:"router,omitempty"`
	Share   *share.Stats      `json:"share,omitempty"`

	// Violations lists every invariant breach, sorted; empty means the
	// stack degraded exactly as promised.
	Violations []string `json:"violations,omitempty"`
	// Traces is the causal-trace export (tracing.Export as JSON) of the
	// drills that own flight recorders. The recorders outlive the tiers, so
	// the export spans the crash. Byte-identical for a given seed.
	Traces json.RawMessage `json:"traces,omitempty"`
}

// run is one drill in flight.
type run struct {
	d       *drill
	cfg     Config // defaults applied
	actions []action
	// The tally's bounds; a script may set its own.
	maxGaps         int64
	minCompleteness float64

	st      *stack.Stack
	rep     *Report
	check   *StreamChecker
	clients []*client
	streams []*stream
	pending []*stream // staged (un)subscribes, resolved by the next Advance
	// down holds between a drill's fault and its clear; late is the
	// subscriber that joined in between.
	down bool
	late *stream

	// The readiness side of a script with crash steps.
	adm *telemetry.Admin

	// Per-drill state, owned by that drill's hooks.
	truth        rowTruth           // ScriptDrill: the field the rows came from
	ledger       *fingerprintLedger // crash-under-the-cache
	recs         []*tracing.Recorder
	lastDegraded bool // stuck-shard
}

// client is one subscriber session; stream one of its subscriptions.
type client struct {
	sess *tier.Session // replaced when the client re-attaches
	rng  *sim.Rand     // the client's own choices, when its drill makes any
}

type stream struct {
	c      *client
	q      query.Query
	ticket *tier.Ticket
	sub    *tier.Sub     // nil until the ticket resolved
	batch  []tier.Update // the last batch taken, recycled by the next take
}

// take observes everything the stream's sub holds and reports whether it is
// still live.
func (r *run) take(s *stream) bool {
	var live bool
	s.sub.Session().Read(func() { s.batch, live = s.sub.Take(s.batch) })
	for _, u := range s.batch {
		r.observe(s, u)
	}
	return live
}

func (r *run) violate(format string, args ...any) {
	r.rep.Violations = append(r.rep.Violations, fmt.Sprintf(format, args...))
}

// Run drives the serving stack through one drill — ScriptDrill or one of
// DrillNames — and reports what the clients saw. The round-driven drills
// share one shape: build the drill's stack, populate it with subscriber
// sessions, then per round fire the drill's actions, advance one quantum of
// virtual time and drain every stream through the StreamChecker; the two
// socket drills run their own body over the same stack. Every drill ends in
// the same tally (duplicates, gaps, ordering, values, progress around the
// fault), the same top-down teardown and the same goroutine-leak check.
func Run(name string, cfg Config) (*Report, error) {
	d := findDrill(name)
	if d == nil {
		return nil, fmt.Errorf("chaos: unknown drill %q (have %s, %s)", name, ScriptDrill, strings.Join(DrillNames(), ", "))
	}
	return d.run(cfg)
}

func (d *drill) run(cfg Config) (*Report, error) {
	r := &run{d: d, cfg: cfg, actions: d.actions, minCompleteness: minCompleteness, check: NewStreamChecker()}
	if r.cfg.Seed == 0 {
		r.cfg.Seed = 1
	}
	if r.cfg.Side <= 0 {
		r.cfg.Side = d.side
	}
	if r.cfg.Clients <= 0 {
		r.cfg.Clients = d.clients
	}
	r.rep = &Report{Scenario: d.name, Completeness: 1, MinCoverage: 1}
	spec, err := d.spec(r)
	if err != nil {
		return nil, err
	}
	if r.cfg.Rounds <= 0 {
		r.cfg.Rounds = defaultRounds
	}
	last, crashes, bounces := 0, false, false
	for _, a := range r.actions {
		last = max(last, a.round)
		crashes = crashes || a.kind == actCrash || a.kind == actBounce
		bounces = bounces || a.kind == actBounce
	}
	if crashes && cfg.WALDir == "" {
		return nil, fmt.Errorf("chaos: %s crashes what it must recover; Config.WALDir is required", r.rep.Scenario)
	}
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, err
		}
	}
	if d.wall == nil {
		if r.cfg.Rounds <= last+d.settle {
			return nil, fmt.Errorf("chaos: %s needs more than %d rounds to observe recovery", r.rep.Scenario, last+d.settle)
		}
		r.rep.Rounds = r.cfg.Rounds
	}
	r.rep.Seed, r.rep.Clients = r.cfg.Seed, r.cfg.Clients

	baseline := runtime.NumGoroutine()
	if r.st, err = stack.Build(spec); err != nil {
		return nil, err
	}
	defer r.st.Close() // for the error paths: finish closes both on its way to the leak check
	if bounces {
		if err := r.startAdmin(); err != nil {
			return nil, err
		}
		defer r.adm.Close()
	}
	body := (*run).drive
	if d.wall != nil {
		body = d.wall
	}
	if err := body(r); err != nil {
		return nil, err
	}
	r.finish(baseline)
	return r.rep, nil
}

// walPath places the single gateway's log; empty disables it.
func (r *run) walPath() string {
	if r.cfg.WALDir == "" {
		return ""
	}
	return filepath.Join(r.cfg.WALDir, "gateway.wal")
}

// drive is the round loop of the virtual-time drills. A fault lands at a
// round boundary; whatever it strands in flight must come back through the
// resume, watermark and replay machinery — the redelivery guarantee under
// test.
func (r *run) drive() error {
	pool := r.d.pool(r)
	per := r.d.perClient
	for c := 0; c < r.cfg.Clients; c++ {
		qs := make([]query.Query, per)
		for s := range qs {
			qs[s] = pool[(c*per+s)%len(pool)]
		}
		if _, err := r.join(fmt.Sprintf("chaos-%02d", c), qs...); err != nil {
			return err
		}
	}
	r.probe("before first round", http.StatusOK)
	for round := 0; round < r.cfg.Rounds; round++ {
		bounce := false
		for _, a := range r.actions {
			if a.round != round {
				continue
			}
			if a.kind == actBounce {
				bounce = true
			} else if err := r.apply(a.kind, pool); err != nil {
				return fmt.Errorf("chaos: round %d: %w", round, err)
			}
		}
		if r.d.stage != nil {
			if err := r.d.stage(r, pool); err != nil {
				return fmt.Errorf("chaos: round %d: %w", round, err)
			}
		}
		// While the stack's one gateway is down the coordinator above it
		// cannot advance it; commands still commit and cached replay still
		// flows. Any other round must advance cleanly.
		if _, err := r.st.Top().Advance(r.d.tick()); err != nil && !(r.down && r.st.Router == nil) {
			return fmt.Errorf("chaos: advance round %d: %w", round, err)
		}
		for _, s := range r.pending {
			sub, err := s.ticket.Wait()
			if err != nil {
				return fmt.Errorf("chaos: commit round %d: %w", round, err)
			}
			if s.sub != nil { // an unsubscribe
				r.leave(s)
				continue
			}
			s.sub = sub
			r.streams = append(r.streams, s)
		}
		r.pending = nil
		if bounce {
			// Kill the gateway with this round's deliveries still sitting
			// untaken in client streams — recovery must bring them back.
			if err := r.bounce(); err != nil {
				return fmt.Errorf("chaos: round %d: %w", round, err)
			}
			continue
		}
		r.drain()
		if r.down && r.late != nil && r.rep.LateReplayed == 0 {
			r.rep.LateReplayed = int64(r.check.Last(r.late.sub.ID()))
		}
	}
	return nil
}

// join registers one session and stages its subscriptions; the staged batch
// commits deterministically at the next Advance. It returns the last stream.
func (r *run) join(name string, qs ...query.Query) (*stream, error) {
	sess, err := r.st.Top().Register(name)
	if err != nil {
		return nil, err
	}
	c := &client{sess: sess, rng: sim.NewRand(r.cfg.Seed).Fork(int64(len(r.clients)))}
	r.clients = append(r.clients, c)
	var s *stream
	for _, q := range qs {
		tk, err := sess.SubscribeAsync(tier.SubscribeRequest{Query: q})
		if err != nil {
			return nil, err
		}
		s = &stream{c: c, q: q, ticket: tk}
		r.pending = append(r.pending, s)
	}
	return s, nil
}

// drain takes every stream's buffer through the checker. A stream that
// closed mid-run is reported once and dropped; the others keep draining.
func (r *run) drain() {
	live := r.streams[:0]
	for _, s := range r.streams {
		if r.drainOne(s) {
			live = append(live, s)
		}
	}
	r.streams = live
}

// leave drains a stream its client unsubscribed, closed at the commit, and
// drops it; leaving is not a mid-run closure.
func (r *run) leave(s *stream) {
	r.take(s)
	r.streams = slices.DeleteFunc(r.streams, func(x *stream) bool { return x == s })
}

func (r *run) drainOne(s *stream) bool {
	if !r.take(s) {
		r.violate("stream %d closed mid-run (%s)", s.sub.ID(), s.sub.Reason())
		return false
	}
	return true
}

// observe passes one delivery through the invariant checker and, when it is
// fresh, through the drill's own check.
func (r *run) observe(s *stream, u tier.Update) {
	if r.check.Observe(u) && r.d.observe != nil {
		r.d.observe(r, s, u)
	}
}

// bounce is a script's crash step: kill the gateway, probe the outage,
// recover it from its WAL, and have every client re-claim its session and
// resume each stream from its last processed sequence number.
func (r *run) bounce() error {
	// The crash is the fault and the recovery its clear, at one cursor.
	r.rep.UpdatesAtFault, r.rep.UpdatesAtClear = r.check.Updates, r.check.Updates
	if err := r.st.Crash(0); err != nil {
		return err
	}
	r.rep.Crashes++
	r.probe(fmt.Sprintf("during crash %d outage", r.rep.Crashes), http.StatusServiceUnavailable)
	if err := r.st.Recover(0); err != nil {
		return err
	}
	r.probe(fmt.Sprintf("after recovery %d", r.rep.Crashes), http.StatusOK)
	for _, c := range r.clients {
		name := c.sess.Name()
		sess, _, err := r.st.Top().Attach(name, c.sess.Token())
		if err != nil {
			return fmt.Errorf("reconnect %s: %w", name, err)
		}
		c.sess = sess
		r.rep.Reconnects++
		for _, s := range r.streams {
			if s.c != c {
				continue
			}
			id := s.sub.ID()
			if s.sub, err = sess.Resume(id, r.check.Last(id)); err != nil {
				return fmt.Errorf("reconnect %s: resume sub %d: %w", name, id, err)
			}
		}
	}
	return nil
}

// probeClient disables keep-alives so no idle connection outlives the run.
var probeClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// startAdmin gives a script with crash steps a live admin plane, so the
// readiness transition — 200 before the crash, 503 while the gateway is
// down, 200 after WAL replay — is asserted as an invariant, and the metrics
// exposition of the crashed-and-recovered shape is validated at the end.
func (r *run) startAdmin() error {
	reg := telemetry.NewRegistry()
	r.st.RegisterMetrics(reg)
	r.adm = telemetry.NewAdmin(telemetry.AdminConfig{Registry: reg, Ready: r.st.Alive})
	if _, err := r.adm.Start("127.0.0.1:0"); err != nil {
		return fmt.Errorf("chaos: admin: %w", err)
	}
	return nil
}

// scrape fetches one admin endpoint; a transport failure is a violation.
func (r *run) scrape(path, phase string) (int, string) {
	resp, err := probeClient.Get("http://" + r.adm.Addr() + path)
	if err != nil {
		r.violate("%s: %s failed: %v", path, phase, err)
		return 0, ""
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.violate("%s: %s read failed: %v", path, phase, err)
	}
	return resp.StatusCode, string(body)
}

func (r *run) probe(phase string, want int) {
	if r.adm == nil {
		return
	}
	r.rep.ReadyProbes++
	if got, _ := r.scrape("/readyz", phase); got != 0 && got != want {
		r.violate("readiness: /readyz %s = %d, want %d", phase, got, want)
	}
}

// finish settles the books: the tiers' final counters and the drill's own
// checks against the live stack, then one top-down teardown, the drain to
// the close markers so nothing buffered is missed, the standard delivery
// tally and the goroutine-leak check.
func (r *run) finish(baseline int) {
	rep, st := r.rep, r.st
	if st.Router != nil {
		s := st.Router.FedStats()
		rep.Router = &s
	}
	if st.Coord != nil {
		s := st.Coord.ShareStats()
		rep.Share = &s
	}
	if r.d.check != nil {
		r.d.check(r)
	}
	if err := st.Close(); err != nil && err != gateway.ErrClosed {
		r.violate("close: %v", err)
	}
	if gw := st.Gateway(); gw != nil {
		s := gw.Stats()
		rep.Gateway = &s
	}
	for _, s := range r.streams {
		r.take(s) // closed by the teardown
	}

	c := r.check
	rep.Updates, rep.Rows = c.Updates, c.Rows
	rep.Duplicates, rep.Gaps, rep.OrderViolations = c.Duplicates, c.Gaps, c.OrderViolations
	if rep.ExpectedRows > 0 {
		rep.Completeness = float64(rep.Rows) / float64(rep.ExpectedRows)
	}
	if rep.Duplicates > 0 {
		r.violate("duplicates: %d update(s) delivered twice", rep.Duplicates)
	}
	if rep.Gaps > r.maxGaps {
		r.violate("gaps: %d sequence number(s) lost, bound %d", rep.Gaps, r.maxGaps)
	}
	if rep.OrderViolations > 0 {
		r.violate("ordering: %d epoch timestamp regression(s)", rep.OrderViolations)
	}
	if rep.ValueMismatches > 0 {
		r.violate("values: %d delivery(ies) carried a wrong value", rep.ValueMismatches)
	}
	if rep.Completeness < r.minCompleteness {
		r.violate("completeness: %.3f below bound %.3f", rep.Completeness, r.minCompleteness)
	}
	if len(r.d.actions) > 0 {
		if rep.UpdatesAtFault == 0 {
			r.violate("no deliveries before the fault")
		}
		if rep.Updates <= rep.UpdatesAtClear {
			r.violate("no progress after the fault cleared (%d then, %d now)", rep.UpdatesAtClear, rep.Updates)
		}
	}
	if r.adm != nil {
		// One final scrape through the decoder-side validator: a crashed-
		// and-recovered gateway must still serve a well-formed exposition.
		if code, body := r.scrape("/metrics", "final scrape"); code != 0 {
			if _, err := telemetry.ParseExposition(body); err != nil {
				r.violate("metrics: malformed exposition: %v", err)
			}
		}
		r.adm.Close()
	}
	if err := CheckGoroutines(baseline, 2*time.Second); err != nil {
		r.violate("%v", err)
	}
	sort.Strings(rep.Violations)
	if len(r.recs) > 0 {
		rep.Traces = tracing.Collect(r.recs...).JSON()
	}
}
