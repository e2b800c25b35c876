// Command ttmqo-serve runs the concurrent query-serving gateway in front
// of a simulated sensor network over TCP, speaking a length-prefixed binary
// wire protocol to clients that negotiate it and newline-delimited JSON to
// those that do not.
//
// Usage:
//
//	ttmqo-serve [-addr :7443] [-side N] [-scheme ttmqo] [-seed S] [-alpha A]
//	            [-tick 250ms] [-quantum 2048ms] [-buffer B] [-quota Q]
//	            [-rate R] [-burst K] [-mtbf D] [-mttr D] [-wal gw.wal]
//	            [-readtimeout 75s] [-write-timeout 30s]
//	            [-max-staged N] [-mailbox-deadline D] [-max-live-subs N]
//	            [-crash-after D] [-crash-outage D]
//	            [-admin 127.0.0.1:9090] [-trace-dump t.json]
//	            [-share [-cache-window W]]
//	            [-json out.json] [-series out.csv] [-sample 30s]
//	ttmqo-serve -shards K [-waldir DIR] [-addr :7443] [-side N] [-scheme S]
//	            [-seed S] [-alpha A] [-tick 250ms] [-quantum 2048ms]
//	            [-buffer B] [-quota Q] [-rate R] [-burst K] [-mtbf D] [-mttr D]
//	            [-readtimeout 75s] [-write-timeout 30s]
//	            [-max-staged N] [-mailbox-deadline D] [-max-live-subs N]
//	            [-admin 127.0.0.1:9090] [-trace-dump t.json]
//	            [-share [-cache-window W]]
//
// Clients connect over TCP and send one JSON request per line —
// {"op":"subscribe","query":"SELECT ..."}, {"op":"unsubscribe","sub":N},
// {"op":"stats"}, {"op":"ping"} heartbeats, optionally
// {"op":"hello","client":"name"} first — and receive result epochs as they
// are produced. A hello carrying "wire":"binary" (or any request sent as a
// binary frame) switches the response stream to the binary codec; a client
// that never asks — nc, a script — is answered in newline-delimited JSON
// throughout. A wall-clock pacer advances the simulation by -quantum of
// virtual time every -tick. Semantically equal
// subscriptions (after normalization) share one in-network query; a
// subscriber that stalls -buffer results behind is evicted; a connection
// silent past -readtimeout is dropped (0 keeps the 75s default; negative
// disables). SIGINT drains the gateway and, with -json, writes the run
// export (including the gateway counters) before exiting.
//
// Overload resilience: -max-staged bounds the group-commit mailbox (new
// subscribes past the bound are shed with an "overloaded" error carrying a
// retry-after hint, and sustained pressure walks the brownout ladder:
// cache replay off, then fan-out batching, then rejecting all new
// admissions); -mailbox-deadline sheds subscribes whose mailbox sojourn
// exceeded their budget (a per-request deadline_ms overrides it);
// -max-live-subs caps concurrently live subscriptions fleet-wide; and
// -write-timeout drops connections that stop reading their result stream
// (slow-loris defense; 0 keeps the 30s default, negative disables). In
// sharded mode the bounds apply per shard, each shard's backend sits
// behind a circuit breaker, and epochs released without full shard
// coverage are marked degraded with a coverage fraction. The admin plane
// exposes everything under the ttmqo_resilience_* families.
//
// Crash recovery: with -wal, committed session/subscription lifecycle is
// write-ahead logged there, and a restart over a non-empty log recovers the
// previous run by deterministic replay — clients re-attach with their hello
// token and resume streams from their last-seen sequence number. -crash-after
// (requires -wal) kills the gateway abruptly after that wall-clock delay,
// then recovers it and re-serves on the same address: a built-in
// crash/recovery drill. -crash-outage holds the gateway down for that long
// before recovery starts, so readiness probes can observe the outage
// (requires -crash-after).
//
// Federation: -shards K (K > 1) shards the deployment into K
// region-partitioned simulations, each behind its own gateway, fronted by
// a router speaking the same wire protocol — client sessions live in the
// router (each shard sees one session, the router's own), cross-shard
// queries split their nodeid region predicate per shard and re-aggregate
// (SUM/COUNT/MIN/MAX/AVG) at the router, and every round steps each shard
// in shard order. -side sizes each shard's grid,
// so K shards simulate K*(side²-1) sensors with global ids 1..K*(side²-1).
// -waldir gives every shard a write-ahead log (DIR/shard-<i>.wal) so a
// crashed shard can be rebuilt and its canonical upstream streams resumed
// in place; it requires -shards (a single gateway logs to -wal). Sharded
// serving is incompatible with -wal, -crash-after, -json and -series. The
// admin plane exposes per-shard ttmqo_shard_* families and the router
// merge-latency histogram.
//
// Sharing: -share fronts the stack — the single gateway, or with -shards the
// router — with the cross-query sharing coordinator: partial-aggregate CSE
// over grid-cell fragments plus a windowed result cache that replays
// -cache-window epochs to late subscribers (0 keeps the default, negative
// disables replay). It is incompatible with -crash-after, -json and
// -series. On SIGINT the coordinator drains first, then the tier
// beneath it, then the listener.
//
// Admin plane: -admin mounts an HTTP server (use 127.0.0.1:0 for an
// ephemeral port; the bound address is printed) exposing /metrics
// (Prometheus text format), /healthz (process liveness, always 200),
// /readyz (200 while the gateway is serving, 503 during a crash
// outage), /statusz (JSON gateway snapshot), /tracez (recent simulation
// trace events) and /debug/pprof. Metrics cover gateway admission and
// fan-out counters, WAL appends/compactions/size, radio traffic and
// per-node energy, and a time-to-first-result histogram fed by per-query
// lifecycle spans.
//
// The serving stack's end-to-end benchmark over real sockets is
// bench/run.sh; many in-process sessions churning one gateway under a crash
// is the session-churn chaos drill (make chaos-soak).
//
// -trace-dump writes the causal-trace flight-recorder export as JSON on exit,
// and immediately after a -crash-after drill's crash.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	ttmqo "repro"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/share"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ttmqo-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	st, err := buildStack(o)
	if err != nil {
		return err
	}
	return serve(st, o)
}

// options are the parsed flags.
type options struct {
	addr, schemeName, wal, admin, jsonOut, seriesOut, waldir, traceDump string

	side, buffer, quota, shards, cacheWindow, maxStaged, maxLiveSubs int

	seed               int64
	alpha, rate, burst float64

	tick, quantum, mtbf, mttr, sample, readTimeout, writeTimeout time.Duration
	crashAfter, crashOutage, mailboxDeadline                     time.Duration

	share bool

	scheme network.Scheme // -scheme, parsed
}

// parseFlags parses and validates the command line.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("ttmqo-serve", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":7443", "TCP listen address")
	fs.IntVar(&o.side, "side", 4, "grid side length (side² nodes)")
	fs.StringVar(&o.schemeName, "scheme", "ttmqo", "baseline, base-station, in-network or ttmqo")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.alpha, "alpha", ttmqo.DefaultAlpha, "termination parameter α")
	fs.DurationVar(&o.tick, "tick", 250*time.Millisecond, "wall-clock pacer period")
	fs.DurationVar(&o.quantum, "quantum", 2048*time.Millisecond, "virtual time simulated per tick")
	fs.IntVar(&o.buffer, "buffer", gateway.DefaultBuffer, "per-subscriber result buffer bound")
	fs.IntVar(&o.quota, "quota", gateway.DefaultSessionQuota, "max live subscriptions per session")
	fs.Float64Var(&o.rate, "rate", gateway.DefaultRate, "subscribe tokens per simulated second")
	fs.Float64Var(&o.burst, "burst", gateway.DefaultBurst, "token bucket burst")
	fs.DurationVar(&o.mtbf, "mtbf", 0, "mean time between node failures (0 disables)")
	fs.DurationVar(&o.mttr, "mttr", 0, "mean node down-time per failure (default 30s when -mtbf is set)")
	fs.StringVar(&o.wal, "wal", "", "write-ahead log path; a restart over a non-empty log recovers the previous run")
	fs.DurationVar(&o.readTimeout, "readtimeout", 0, "per-connection read deadline (0 = 75s default, negative disables)")
	fs.DurationVar(&o.crashAfter, "crash-after", 0, "crash the gateway after this wall-clock delay, then recover it (requires -wal)")
	fs.DurationVar(&o.crashOutage, "crash-outage", 0, "hold the crashed gateway down this long before recovery so /readyz probes observe the outage (requires -crash-after)")
	fs.StringVar(&o.admin, "admin", "", "admin HTTP address for /metrics, /healthz, /readyz, /statusz, /tracez and /debug/pprof (empty disables; 127.0.0.1:0 picks a port)")
	fs.StringVar(&o.jsonOut, "json", "", "write the run export (with gateway counters) as JSON to this file on exit")
	fs.StringVar(&o.seriesOut, "series", "", "write the sampled time series as CSV to this file on exit")
	fs.DurationVar(&o.sample, "sample", 0, "virtual-time sampling interval (default 30s when -series/-json is set)")
	fs.IntVar(&o.shards, "shards", 1, "shard the deployment into K region partitions behind a federation router (1 = single gateway)")
	fs.StringVar(&o.waldir, "waldir", "", "federation: per-shard write-ahead-log directory (DIR/shard-<i>.wal), enables shard crash recovery (requires -shards K > 1)")
	fs.BoolVar(&o.share, "share", false, "front the serving tier with the cross-query sharing coordinator (partial-aggregate CSE + windowed result cache)")
	fs.IntVar(&o.cacheWindow, "cache-window", 0, "share: result-cache depth in epochs (0 = default, negative disables cached replay; requires -share)")
	fs.IntVar(&o.maxStaged, "max-staged", 0, "admission control: shed new subscribes once this many commands are staged in the group-commit mailbox (0 disables; also arms the brownout ladder)")
	fs.DurationVar(&o.mailboxDeadline, "mailbox-deadline", 0, "admission control: default mailbox sojourn budget for subscribes; a per-request deadline_ms overrides (0 disables)")
	fs.IntVar(&o.maxLiveSubs, "max-live-subs", 0, "admission control: global cap on concurrently live subscriptions (0 disables)")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 0, "per-connection write deadline guarding against non-reading subscribers (0 = 30s default, negative disables)")
	fs.StringVar(&o.traceDump, "trace-dump", "", "write the causal-trace flight-recorder export as JSON to this file on exit (and immediately after a -crash-after drill's crash)")
	_ = fs.Parse(args) // ExitOnError: Parse reports a bad flag itself and exits
	return o, o.validate()
}

// validate rejects the flag combinations no stack shape can honour — every
// one is an error, never a silently ignored flag.
func (o *options) validate() error {
	var err error
	if o.scheme, err = network.ParseScheme(o.schemeName); err != nil {
		return err
	}
	exports := o.jsonOut != "" || o.seriesOut != ""
	switch {
	case o.cacheWindow != 0 && !o.share:
		return fmt.Errorf("-cache-window requires -share")
	case o.share && o.crashAfter > 0:
		return fmt.Errorf("-share does not compose with the -crash-after drill")
	case o.share && exports:
		return fmt.Errorf("-json/-series support only gateway-direct serving")
	case o.shards > 1 && o.wal != "":
		return fmt.Errorf("-shards uses per-shard logs; set -waldir instead of -wal")
	case o.shards > 1 && o.crashAfter > 0:
		return fmt.Errorf("-crash-after supports only single-gateway serving")
	case o.shards > 1 && exports:
		return fmt.Errorf("-json/-series support only single-gateway serving")
	case o.crashAfter > 0 && o.wal == "":
		return fmt.Errorf("-crash-after requires -wal")
	case o.waldir != "" && o.shards <= 1:
		return fmt.Errorf("-waldir requires -shards K > 1; a single gateway logs to -wal")
	case o.crashOutage > 0 && o.crashAfter <= 0:
		return fmt.Errorf("-crash-outage requires -crash-after")
	}
	return nil
}

// served is one serving deployment, whatever its shape: the wired tiers
// plus what only this binary owns — the flight recorders, the simulation
// event ring and the banner text. The admin hooks, the summary line and the
// role are derived from which tier handles are non-nil.
type served struct {
	*stack.Stack

	// traces owns the causal-trace flight recorders; simTrace is the
	// simulation event ring behind /tracez.
	traces   *traceSet
	simTrace *tracing.Recorder

	// The banner reads "ttmqo-serve: <role> on <addr> (<detail>)".
	detail string
}

// buildStack turns the flags into a stack.Spec, builds it, and words the
// banner.
func buildStack(o *options) (*served, error) {
	// Causal tracing mounts unconditionally: the flight recorders are
	// bounded rings owned here, so they survive crash/recovery swaps and
	// are dumpable (-trace-dump) even without -admin.
	st := &served{traces: newTraceSet()}
	failures := network.FailureConfig{MTBF: o.mtbf, MTTR: o.mttr}
	spec := stack.Spec{
		Share: o.share,
		Coord: share.Config{
			Window:       o.cacheWindow,
			Buffer:       o.buffer,
			SessionQuota: o.quota,
		},
	}
	if o.shards > 1 {
		spec.Shards = o.shards
		spec.Router = federation.Config{
			Side:            o.side,
			Seed:            o.seed,
			Scheme:          o.scheme,
			Alpha:           o.alpha,
			Buffer:          o.buffer,
			SessionQuota:    o.quota,
			Rate:            o.rate,
			Burst:           o.burst,
			WALDir:          o.waldir,
			Failures:        failures,
			MailboxDeadline: o.mailboxDeadline,
			MaxStaged:       o.maxStaged,
			MaxLiveSubs:     o.maxLiveSubs,
			Tracer:          st.traces.rec(tracing.TierRouter),
			ShardTracer:     st.traces.shardRecs(o.shards),
		}
	} else {
		topo, err := ttmqo.PaperGrid(o.side)
		if err != nil {
			return nil, err
		}
		sample := o.sample
		if sample <= 0 && (o.seriesOut != "" || o.jsonOut != "") {
			sample = ttmqo.DefaultSampleInterval
		}
		if o.admin != "" {
			// Snapshot is safe against the engine goroutine's concurrent Records.
			st.simTrace = tracing.New(tracing.TierNetwork, 2048)
		}
		spec.Gateway = gateway.Config{
			Sim: network.Config{
				Topo:     topo,
				Scheme:   o.scheme,
				Seed:     o.seed,
				Alpha:    o.alpha,
				Failures: failures,
				Trace:    st.simTrace,
			},
			Buffer:          o.buffer,
			SessionQuota:    o.quota,
			Rate:            o.rate,
			Burst:           o.burst,
			Sample:          sample,
			WALPath:         o.wal,
			MaxStaged:       o.maxStaged,
			MailboxDeadline: o.mailboxDeadline,
			MaxLiveSubs:     o.maxLiveSubs,
			Tracer:          st.traces.rec(tracing.TierGateway),
		}
	}
	if o.share {
		spec.Coord.Tracer = st.traces.rec(tracing.TierShare)
	}
	built, err := stack.Build(spec)
	if err != nil {
		return nil, err
	}
	st.Stack = built
	if built.Router != nil {
		st.detail = fmt.Sprintf("%d shards × side %d = %d sensors, scheme=%s", o.shards, o.side, built.Sensors(), o.scheme)
	} else {
		st.detail = fmt.Sprintf("scheme=%s nodes=%d tick=%v quantum=%v", o.scheme, built.Sensors()+1, o.tick, o.quantum)
		// A non-empty log from a previous run was a crashed (or killed)
		// server: the stack recovered it by replay instead of starting fresh.
		if gs := built.Gateway().Stats(); gs.Recoveries > 0 {
			fmt.Printf("ttmqo-serve: recovered %d session(s), %d subscription(s) from %s\n",
				gs.ActiveSessions, gs.ActiveSubscriptions, o.wal)
		}
	}
	if o.share {
		window := o.cacheWindow
		switch {
		case window == 0:
			window = share.DefaultWindow
		case window < 0:
			window = 0
		}
		st.detail = fmt.Sprintf("cell=%d cache-window=%d; %s", share.DefaultCell, window, st.detail)
	}
	return st, nil
}

// role names the top tier in the banner.
func (st *served) role() string {
	switch {
	case st.Coord != nil:
		return "sharing coordinator"
	case st.Router != nil:
		return "router"
	}
	return "listening"
}

// summary is the top tier's line printed after the drain.
func (st *served) summary() string {
	switch {
	case st.Coord != nil:
		s := st.Coord.ShareStats()
		return fmt.Sprintf("sessions=%d subscribes=%d dedup_hits=%d fragments_created=%d fragments_reused=%d reuse_ratio=%.2f cache_hits=%d replayed_epochs=%d updates=%d",
			s.Sessions, s.Subscribes, s.DedupHits, s.FragmentsCreated, s.FragmentsReused,
			s.FragmentReuseRatio(), s.CacheHits, s.ReplayedEpochs, s.Updates)
	case st.Router != nil:
		s := st.Router.FedStats()
		return fmt.Sprintf("shards=%d sessions=%d subscribes=%d dedup_hits=%d trees=%d merged_epochs=%d updates=%d",
			s.Shards, s.Sessions, s.Subscribes, s.DedupHits, s.Trees, s.MergedEpochs, s.Updates)
	}
	s := st.Gateway().Stats()
	return fmt.Sprintf("sessions=%d subscribes=%d dedup_hits=%d admitted=%d dedup_ratio=%.2f updates=%d evicted=%d recoveries=%d",
		s.Sessions, s.Subscribes, s.DedupHits, s.Admitted, s.DedupRatio(), s.Updates, s.Evicted, s.Recoveries)
}

// status fills the /statusz document, one section per tier.
func (st *served) status() any {
	doc := telemetry.StatusSections{Tracing: st.traces.summary()}
	if st.Router != nil {
		s := st.Router.FedStats()
		doc.Federation, doc.Resilience = s, fedResilienceSection(s)
	} else {
		g := st.Gateway()
		doc.Gateway, doc.Resilience = g.Status(), resilienceSection(g.Stats())
	}
	if st.Coord != nil {
		doc.Share = st.Coord.ShareStats()
	}
	return doc
}

// dumpTraces writes the -trace-dump post-mortem and reports it under prefix.
func (st *served) dumpTraces(path, prefix string) error {
	if path == "" {
		return nil
	}
	if err := st.traces.dump(path); err != nil {
		return err
	}
	fmt.Printf("%strace dump: %s\n", prefix, path)
	return nil
}

// startAdmin mounts the admin plane over the deployment's hooks.
func startAdmin(addr string, st *served) (*telemetry.Admin, error) {
	reg := telemetry.NewRegistry()
	st.RegisterMetrics(reg)
	tracing.RegisterMetrics(reg, st.traces.recorders)
	cfg := telemetry.AdminConfig{Registry: reg, Ready: st.Alive, Status: st.status, TraceJSON: st.traces.traceJSON}
	// /tracez: the cross-tier span trees, then the simulation ring.
	cfg.Trace = func(w io.Writer) {
		st.traces.renderTrees(w)
		if st.simTrace != nil {
			fmt.Fprintln(w, "\nsimulation events:")
			st.simTrace.WriteText(w)
		}
	}
	adm := telemetry.NewAdmin(cfg)
	bound, err := adm.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("ttmqo-serve: admin on http://%s\n", bound)
	return adm, nil
}

// serve fronts the stack with the TCP server and the admin plane, waits
// for SIGINT/SIGTERM, then drains: the stack's tiers top-down, then the
// listener.
func serve(st *served, o *options) error {
	srvCfg := gateway.ServerConfig{
		Addr:         o.addr,
		TickEvery:    o.tick,
		Quantum:      o.quantum,
		ReadTimeout:  o.readTimeout,
		WriteTimeout: o.writeTimeout,
	}
	srv, err := gateway.NewServer(st.Top(), srvCfg)
	if err != nil {
		_ = st.Close()
		return err
	}
	fmt.Printf("ttmqo-serve: %s on %s (%s)\n", st.role(), srv.Addr(), st.detail)
	if o.admin != "" {
		adm, err := startAdmin(o.admin, st)
		if err != nil {
			_ = st.Close()
			srv.Close()
			return err
		}
		defer adm.Close()
	}

	// mu guards the gateway/server pair: the crash drill swaps both under
	// it while the signal handler waits to drain them.
	var mu sync.Mutex
	if o.crashAfter > 0 {
		// Pin the recovered server to the originally bound address (":0"
		// resolves once, clients reconnect to the same port).
		srvCfg.Addr = srv.Addr().String()
		go func() {
			time.Sleep(o.crashAfter)
			mu.Lock()
			defer mu.Unlock()
			fmt.Println("ttmqo-serve: injecting crash")
			srv.Close()
			st.Crash(0)
			// The rings are owned here, not by the crashed gateway, so the
			// dump carries everything through the crash span.
			if err := st.dumpTraces(o.traceDump, "ttmqo-serve: "); err != nil {
				fmt.Fprintln(os.Stderr, "ttmqo-serve: trace dump:", err)
			}
			// Hold the outage so /readyz probes can observe the 503 window
			// before recovery flips it back.
			time.Sleep(o.crashOutage)
			if err := st.Recover(0); err != nil {
				fmt.Fprintln(os.Stderr, "ttmqo-serve: recover:", err)
				os.Exit(1)
			}
			s2, err := gateway.NewServer(st.Top(), srvCfg)
			if err != nil {
				st.Close()
				fmt.Fprintln(os.Stderr, "ttmqo-serve: re-serve:", err)
				os.Exit(1)
			}
			srv = s2
			fmt.Printf("ttmqo-serve: recovered %d session(s) on %s; clients may re-attach\n",
				st.Gateway().Stats().ActiveSessions, srv.Addr())
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("ttmqo-serve: draining")

	mu.Lock()
	defer mu.Unlock()
	if err := st.Close(); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Println(st.summary())
	if err := st.dumpTraces(o.traceDump, ""); err != nil {
		return err
	}
	return writeExports(st.Gateway(), o.jsonOut, o.seriesOut)
}

// resilienceSection distills a gateway stats snapshot into the /statusz
// resilience section: the brownout ladder and the shed counters.
func resilienceSection(st gateway.Stats) map[string]any {
	return map[string]any{
		"brownout_level":       st.BrownoutLevel,
		"brownout_escalations": st.BrownoutEscalations,
		"brownout_recoveries":  st.BrownoutRecoveries,
		"shed_queue":           st.ShedQueue,
		"shed_deadline":        st.ShedDeadline,
		"shed_subs":            st.ShedSubs,
		"shed_brownout":        st.ShedBrownout,
	}
}

// fedResilienceSection distills a federation stats snapshot into the
// /statusz resilience section: breakers, stalls and degraded releases.
func fedResilienceSection(st federation.Stats) map[string]any {
	return map[string]any{
		"shed_deadline":      st.ShedDeadline,
		"degraded_epochs":    st.DegradedEpochs,
		"stalled_shards":     st.StalledShards,
		"shard_stalls":       st.ShardStalls,
		"breaker_trips":      st.BreakerTrips,
		"breaker_probes":     st.BreakerProbes,
		"breaker_recoveries": st.BreakerRecoveries,
		"shard_crashes":      st.ShardCrashes,
		"shard_recoveries":   st.ShardRecoveries,
	}
}

// writeJSON writes v as the -json export.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ttmqo.WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("json: %s\n", path)
	return nil
}

func writeExports(gw *gateway.Gateway, jsonOut, seriesOut string) error {
	if jsonOut != "" {
		if err := writeJSON(jsonOut, gw.Export()); err != nil {
			return err
		}
	}
	if seriesOut != "" {
		ser := gw.Series()
		if ser == nil {
			return fmt.Errorf("no series sampled")
		}
		f, err := os.Create(seriesOut)
		if err != nil {
			return err
		}
		if err := ser.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("series: %s (%d samples)\n", seriesOut, ser.Len())
	}
	return nil
}
