// Command ttmqo-shell is an interactive console for a simulated sensor
// network: pose and stop TinyDB-dialect queries, advance virtual time, and
// inspect the optimizer and radio state.
//
// Usage:
//
//	ttmqo-shell [-side N] [-scheme ttmqo] [-seed S] [-series out.csv] [-sample 30s]
//
// Commands:
//
//	post <query>        admit a query, e.g. post SELECT light WHERE light > 200 EPOCH DURATION 4096
//	load <file.json>    admit a workload file (see ttmqo-workload)
//	stop <id>           terminate query <id>
//	run <seconds>       advance virtual time
//	results <id> [n]    show the last n (default 3) delivered epochs
//	queries             list live user queries
//	synthetic           list running synthetic queries (tier-1 schemes)
//	explain <id>        how the base station serves query <id>
//	stats               radio accounting
//	manifest            print the run's identifying manifest as JSON
//	export <file.json>  write the run's machine-readable export so far
//	map                 ASCII map of node states and transmit load
//	trace [n|summary]   tail the event log / summarize it
//	fail <id>           fail a node; revive <id> brings it back
//	help                this text
//	quit
//
// With -series, the session's metrics are sampled every -sample of virtual
// time and written as CSV on quit.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"flag"

	ttmqo "repro"
	"repro/internal/network"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ttmqo-shell:", err)
		os.Exit(1)
	}
}

func run() error {
	side := flag.Int("side", 4, "grid side length")
	schemeName := flag.String("scheme", "ttmqo", "baseline, base-station, in-network or ttmqo")
	seed := flag.Int64("seed", 1, "random seed")
	seriesOut := flag.String("series", "", "write the session's sampled time series as CSV on quit")
	sample := flag.Duration("sample", ttmqo.DefaultSampleInterval, "virtual-time sampling interval for -series")
	flag.Parse()

	scheme, err := network.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	topo, err := ttmqo.PaperGrid(*side)
	if err != nil {
		return err
	}
	buf := ttmqo.NewTrace(10000)
	sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
		Topo: topo, Scheme: scheme, Seed: *seed, Trace: buf,
	})
	if err != nil {
		return err
	}
	fmt.Printf("ttmqo-shell: %d-node grid, scheme %s. Type 'help'.\n", topo.Size(), scheme)

	sh := &shell{sim: sim, trace: buf}
	if *seriesOut != "" {
		sh.series = sim.StartSeries(*sample)
	}
	flush := func() error {
		if sh.series == nil {
			return nil
		}
		f, err := os.Create(*seriesOut)
		if err != nil {
			return err
		}
		if err := sh.series.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("series: %s (%d samples)\n", *seriesOut, sh.series.Len())
		return nil
	}
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("[t=%v] > ", time.Duration(sim.Engine().Now()).Round(time.Millisecond))
		if !scanner.Scan() {
			fmt.Println()
			if err := flush(); err != nil {
				return err
			}
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return flush()
		}
		sh.exec(line)
	}
}

type shell struct {
	sim    *ttmqo.Simulation
	trace  *ttmqo.Trace
	series *ttmqo.TimeSeries
}

func (s *shell) exec(line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "help":
		fmt.Println("post <query> | load <file.json> | stop <id> | run <seconds> | results <id> [n] | queries | synthetic | explain <id> | stats | manifest | export <file> | map | trace [n|summary] | fail <id> | revive <id> | quit")
	case "load":
		f, err := os.Open(strings.TrimSpace(rest))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		ws, err := workload.LoadJSON(f)
		f.Close()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		// Replayed as Simulation.Schedule would, under fresh IDs: what arrived
		// by now is admitted now, what departed by now is skipped, and a
		// departure its LIFETIME ends first is not scheduled.
		now := time.Duration(s.sim.Engine().Now())
		for _, w := range ws {
			if w.Depart != 0 && w.Depart <= now {
				continue
			}
			q := w.Query
			q.ID = s.sim.NextID()
			if w.Arrive > now {
				s.sim.PostAt(w.Arrive, q)
				fmt.Printf("query %d scheduled for t=%v\n", q.ID, w.Arrive)
			} else {
				if _, err := s.sim.Post(q); err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Printf("query %d admitted\n", q.ID)
			}
			if w.Departs(max(w.Arrive, now)) {
				s.sim.CancelAt(w.Depart, q.ID)
				fmt.Printf("query %d stops at t=%v\n", q.ID, w.Depart)
			}
		}
	case "post":
		q, err := ttmqo.ParseQuery(rest)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		id, err := s.sim.Post(q)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("query %d admitted: %s\n", id, q)
	case "stop":
		id, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			fmt.Println("error: stop <id>")
			return
		}
		if err := s.sim.Cancel(ttmqo.QueryID(id)); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("query %d terminated\n", id)
	case "run":
		secs, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil || secs <= 0 {
			fmt.Println("error: run <seconds>")
			return
		}
		s.sim.Run(time.Duration(secs * float64(time.Second)))
		fmt.Printf("advanced to t=%v\n", time.Duration(s.sim.Engine().Now()).Round(time.Millisecond))
	case "results":
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			fmt.Println("error: results <id> [n]")
			return
		}
		id, err := strconv.Atoi(fields[0])
		if err != nil {
			fmt.Println("error: results <id> [n]")
			return
		}
		n := 3
		if len(fields) > 1 {
			if v, err := strconv.Atoi(fields[1]); err == nil {
				n = v
			}
		}
		s.printResults(ttmqo.QueryID(id), n)
	case "queries":
		if opt := s.sim.Optimizer(); opt != nil {
			for _, q := range opt.UserQueries() {
				fmt.Printf("  q%d: %s\n", q.ID, q)
			}
			return
		}
		fmt.Println("  (baseline/in-network scheme: queries run unrewritten; use results <id>)")
	case "explain":
		opt := s.sim.Optimizer()
		if opt == nil {
			fmt.Println("  (this scheme has no base-station optimizer)")
			return
		}
		id, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			fmt.Println("error: explain <id>")
			return
		}
		e, err := opt.Explain(ttmqo.QueryID(id))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		for _, line := range strings.Split(e.String(), "\n") {
			fmt.Println(" ", line)
		}
	case "synthetic":
		opt := s.sim.Optimizer()
		if opt == nil {
			fmt.Println("  (this scheme has no base-station optimizer)")
			return
		}
		for _, sq := range opt.SyntheticQueries() {
			fmt.Printf("  syn %d serves %v: %s\n", sq.ID, opt.FromList(sq.ID), sq)
		}
	case "stats":
		fmt.Printf("  avg transmission time: %.4f%%\n", s.sim.AvgTransmissionTime()*100)
		fmt.Printf("  %s\n", s.sim.Metrics())
	case "manifest":
		m := s.sim.Manifest()
		m.Study = "shell"
		if err := ttmqo.WriteJSON(os.Stdout, m.Hashed()); err != nil {
			fmt.Println("error:", err)
		}
	case "export":
		path := strings.TrimSpace(rest)
		if path == "" {
			fmt.Println("error: export <file.json>")
			return
		}
		if err := s.export(path); err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("wrote %s\n", path)
	case "map":
		s.printMap()
	case "trace":
		arg := strings.TrimSpace(rest)
		if arg == "summary" {
			fmt.Println(" ", s.trace.Summary())
			return
		}
		n := 10
		if v, err := strconv.Atoi(arg); err == nil && v > 0 {
			n = v
		}
		for _, e := range s.trace.Tail(n) {
			fmt.Println(" ", e)
		}
	case "fail", "revive":
		id, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil || id <= 0 {
			fmt.Printf("error: %s <node id>\n", cmd)
			return
		}
		if cmd == "fail" {
			s.sim.FailNode(ttmqo.NodeID(id))
			fmt.Printf("node %d failed\n", id)
		} else {
			s.sim.ReviveNode(ttmqo.NodeID(id))
			fmt.Printf("node %d revived\n", id)
		}
	default:
		fmt.Printf("unknown command %q (try help)\n", cmd)
	}
}

// export writes the session's run export — manifest, radio metrics so far,
// optimizer state, span summary and any sampled series — as JSON.
func (s *shell) export(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ttmqo.WriteJSON(f, s.sim.Export("shell", "", "")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (s *shell) printResults(id ttmqo.QueryID, n int) {
	rows := s.sim.Results().RowsFor(id)
	aggs := s.sim.Results().AggsFor(id)
	if len(rows) == 0 && len(aggs) == 0 {
		fmt.Println("  no results yet")
		return
	}
	for i := max(0, len(rows)-n); i < len(rows); i++ {
		ep := rows[i]
		fmt.Printf("  t=%v: %d rows\n", time.Duration(ep.Time), len(ep.Rows))
		for _, r := range ep.Rows {
			fmt.Printf("    node %d: %v\n", r.Node, r.Values)
		}
	}
	for i := max(0, len(aggs)-n); i < len(aggs); i++ {
		ep := aggs[i]
		fmt.Printf("  t=%v:", time.Duration(ep.Time))
		for _, r := range ep.Results {
			label := r.Agg.String()
			if r.Group != 0 {
				label = fmt.Sprintf("%s[g%d]", r.Agg, r.Group)
			}
			if r.Empty {
				fmt.Printf(" %s=∅", label)
			} else {
				fmt.Printf(" %s=%.1f", label, r.Value)
			}
		}
		fmt.Println()
	}
}

// printMap renders the deployment as an ASCII grid: per node its state
// (B=base station, o=awake, z=asleep, X=down) and a 0–9 transmit-load heat
// digit scaled to the busiest node.
func (s *shell) printMap() {
	topo := s.sim.Topology()
	type cell struct {
		x, y float64
		id   ttmqo.NodeID
	}
	cells := make([]cell, 0, topo.Size())
	var maxTx time.Duration
	for i := 0; i < topo.Size(); i++ {
		id := ttmqo.NodeID(i)
		p := topo.Position(id)
		cells = append(cells, cell{x: p.X, y: p.Y, id: id})
		if tx := s.sim.Metrics().TxTime(id); tx > maxTx {
			maxTx = tx
		}
	}
	// Group rows by Y, order columns by X.
	rows := map[float64][]cell{}
	var ys []float64
	for _, c := range cells {
		if _, ok := rows[c.y]; !ok {
			ys = append(ys, c.y)
		}
		rows[c.y] = append(rows[c.y], c)
	}
	sortFloats(ys)
	fmt.Println("  state:                     tx load (0-9):")
	for _, y := range ys {
		row := rows[y]
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j].x < row[j-1].x; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		var state, heat strings.Builder
		for _, c := range row {
			state.WriteString(" ")
			heat.WriteString(" ")
			switch {
			case c.id == 0:
				state.WriteString("B")
			case s.sim.Node(c.id).Down():
				state.WriteString("X")
			case s.sim.Node(c.id).Asleep():
				state.WriteString("z")
			default:
				state.WriteString("o")
			}
			if maxTx == 0 {
				heat.WriteString("0")
			} else {
				h := int(9 * float64(s.sim.Metrics().TxTime(c.id)) / float64(maxTx))
				heat.WriteString(strconv.Itoa(h))
			}
		}
		pad := 26 - state.Len()
		if pad < 2 {
			pad = 2
		}
		fmt.Printf("  %s%s%s\n", state.String(), strings.Repeat(" ", pad), heat.String())
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
