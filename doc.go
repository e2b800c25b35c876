// Package ttmqo is a from-scratch reproduction of "Two-Tier Multiple Query
// Optimization for Sensor Networks" (Xiang, Lim, Tan, Zhou — ICDCS 2007):
// a complete sensor-network query-processing stack with the paper's
// two-tier multi-query optimizer on top of a packet-level network
// simulator.
//
// # Architecture
//
// Tier 1 (base-station optimization, §3.1) rewrites the live set of user
// queries into a smaller set of synthetic queries using a cost-based greedy
// algorithm, and derives every user query's results from the synthetic
// streams. Tier 2 (in-network optimization, §3.2) executes the injected
// queries inside the network, sharing sampling across queries on a
// GCD-aligned epoch clock, routing results over a query-aware DAG instead
// of TinyDB's fixed tree, packing one radio message for all queries a
// reading serves, and letting data-less nodes sleep.
//
// The substrate is a deterministic discrete-event simulator with a
// broadcast radio medium (airtime, carrier queueing, contention-dependent
// collisions and retransmissions), a TinyDB-dialect query language, and a
// seeded spatially/temporally correlated sensor field — everything the
// paper ran on TinyDB/TOSSIM, rebuilt in pure Go with no dependencies
// beyond the standard library.
//
// # Quick start
//
//	topo, _ := ttmqo.PaperGrid(4) // 16 nodes, 20ft spacing, 50ft range
//	sim, _ := ttmqo.NewSimulation(ttmqo.SimulationConfig{
//		Topo:   topo,
//		Scheme: ttmqo.SchemeTTMQO,
//		Seed:   1,
//	})
//	id, _ := sim.Post(ttmqo.MustParseQuery(
//		"SELECT nodeid, light WHERE light > 200 EPOCH DURATION 4096ms"))
//	sim.Run(5 * time.Minute)
//	for _, epoch := range sim.Results().RowsFor(id) {
//		fmt.Println(epoch.Time, epoch.Rows)
//	}
//
// The tier-1 optimizer is also usable standalone (see NewOptimizer), and
// the experiment harnesses under RunFigure… regenerate every figure of the
// paper's evaluation. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
//
// # Commands
//
// Five programs under cmd/ exercise the stack end to end:
//
//   - ttmqo-bench regenerates the paper's evaluation figures
//     (-fig, -minutes, -runs, -parallel, -seed, -json, -md,
//     -cpuprofile, -memprofile).
//   - ttmqo-sim runs a scenario from flags (-side, -scheme, -workload,
//     -minutes, -seed, -alpha, -concurrency, -queries, -runs, -compare,
//     -parallel, -mtbf, -mttr, -v, -trace, -field, -json, -series,
//     -sample, -cpuprofile, -memprofile): a named workload or a workload
//     file, one run in detail, a run of seeds, or ttmqo-sim -workload
//     w.json -compare for every scheme at one seed.
//   - ttmqo-workload generates and inspects JSON workload files
//     (gen/show subcommands; -kind, -out, -seed, -queries, -concurrency).
//   - ttmqo-shell is an interactive console over a live simulation.
//   - ttmqo-serve is the multi-client serving gateway over TCP (binary
//     frames to clients that negotiate them, newline-delimited JSON to
//     the rest) with semantic dedup, rate limiting and bounded fan-out
//     (-addr, -side, -scheme, -seed, -alpha, -tick, -quantum, -buffer,
//     -quota, -rate, -burst, -mtbf, -mttr, -json, -series, -sample), plus
//     a sharded federation mode (-shards, -waldir) fronting several
//     region-partitioned gateways with an aggregate-recombining router
//     that holds every client session itself.
//
// The gateway is also a library: NewGateway wraps a Simulation in a
// goroutine-safe session/subscription front end whose group-commit
// mailbox keeps concurrent use deterministic — the session-churn chaos
// drill stages many sessions' commands from goroutines of their own and
// pins the outcome per seed. Gateway, federation router and share
// coordinator run one session machine (internal/tier): GatewaySession,
// Subscription and the update vocabulary are the same types on all three.
package ttmqo
