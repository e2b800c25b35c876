// Trafficgrid: a traffic-monitoring scenario (another of the paper's §1
// motivating domains) with a *dynamic* query population — operators connect,
// watch a region of the 64-node sensor grid for a while, and disconnect.
// The example replays the same adaptive workload under the baseline and
// under TTMQO, showing how the optimizer absorbs query churn at the base
// station (§3.1.4): most arrivals and terminations never touch the network.
package main

import (
	"fmt"
	"log"
	"time"

	ttmqo "repro"
)

func main() {
	topo, err := ttmqo.PaperGrid(8) // 64 nodes
	if err != nil {
		log.Fatal(err)
	}

	// 60 operator sessions arriving every ~40s, ~12 concurrent on average.
	ws := ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{
		Seed:              99,
		NumQueries:        60,
		TargetConcurrency: 12,
	})
	var span time.Duration
	for _, w := range ws {
		if w.Depart > span {
			span = w.Depart
		}
	}
	fmt.Printf("64-node grid, %d operator sessions over %v of virtual time\n\n",
		len(ws), span.Round(time.Minute))

	for _, scheme := range []ttmqo.Scheme{ttmqo.SchemeBaseline, ttmqo.SchemeTTMQO} {
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo:           topo,
			Scheme:         scheme,
			Seed:           99,
			DiscardResults: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		sim.Schedule(ws)
		start := time.Now()
		sim.Run(span + time.Minute)
		fmt.Printf("%-9s avgTx=%.4f%%  messages=%d (query floods=%d, aborts=%d)  wall=%v\n",
			scheme,
			sim.AvgTransmissionTime()*100,
			sim.Metrics().Messages(),
			sim.Metrics().MessagesOf("query"),
			sim.Metrics().MessagesOf("abort"),
			time.Since(start).Round(time.Millisecond))
	}

	// How much churn did the base station absorb? Replay the same workload
	// against a standalone optimizer and count the operations that needed
	// no network traffic at all.
	model, err := ttmqo.NewCostModel(topo.LevelSizes(), ttmqo.CostConfig{})
	if err != nil {
		log.Fatal(err)
	}
	opt := ttmqo.NewOptimizer(model, ttmqo.OptimizerOptions{})
	type ev struct {
		at     time.Duration
		arrive bool
		q      ttmqo.Query
	}
	var evs []ev
	for _, w := range ws {
		evs = append(evs, ev{w.Arrive, true, w.Query}, ev{w.Depart, false, w.Query})
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].at < evs[j-1].at; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	silent, total := 0, 0
	for _, e := range evs {
		var ch ttmqo.Change
		var err error
		if e.arrive {
			ch, err = opt.Insert(e.q)
		} else {
			ch, err = opt.Terminate(e.q.ID)
		}
		if err != nil {
			log.Fatal(err)
		}
		total++
		if ch.Empty() {
			silent++
		}
	}
	fmt.Printf("\nbase station absorbed %d of %d query arrivals/terminations silently (%.0f%%)\n",
		silent, total, 100*float64(silent)/float64(total))
}
