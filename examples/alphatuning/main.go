// Alphatuning: explore the §3.1.4 termination parameter α on a churn-heavy
// healthcare-monitoring workload. α tunes how aggressively the base station
// rewrites the synthetic query set when user queries terminate: small α
// re-optimizes eagerly (tight queries, frequent re-injection floods), large
// α leaves stale synthetic queries running (no floods, wasted data).
package main

import (
	"fmt"
	"log"
	"time"

	ttmqo "repro"
)

func main() {
	topo, err := ttmqo.PaperGrid(6)
	if err != nil {
		log.Fatal(err)
	}

	// A ward-monitoring workload: many short-lived queries (clinicians
	// checking on patients) over a long-running base set.
	ws := ttmqo.RandomWorkload(ttmqo.RandomWorkloadConfig{
		Seed:              3,
		NumQueries:        120,
		TargetConcurrency: 10,
		MeanInterarrival:  20 * time.Second,
	})
	var span time.Duration
	for _, w := range ws {
		if w.Depart > span {
			span = w.Depart
		}
	}

	fmt.Printf("%d queries, ~10 concurrent, over %v; sweeping alpha\n\n",
		len(ws), span.Round(time.Minute))
	fmt.Printf("%6s %10s %10s %12s %10s\n", "alpha", "avgTx(%)", "floods", "reinserts", "synAvg")

	for _, alpha := range []float64{0.0001, 0.2, 0.6, 1.0, 2.0} {
		sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
			Topo:           topo,
			Scheme:         ttmqo.SchemeTTMQO,
			Seed:           3,
			Alpha:          alpha,
			DiscardResults: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		sim.Schedule(ws)

		// Sample the synthetic-query count as the run progresses.
		var synSum, synN float64
		step := span / 60
		for t := time.Duration(0); t < span; t += step {
			sim.Run(step)
			synSum += float64(sim.Optimizer().SyntheticCount())
			synN++
		}

		fmt.Printf("%6.2f %10.4f %10d %12d %10.2f\n",
			alpha,
			sim.AvgTransmissionTime()*100,
			sim.Metrics().MessagesOf("query"),
			sim.Metrics().MessagesOf("abort"),
			synSum/synN)
	}

	fmt.Println("\nsmall alpha floods the network with re-injection traffic; large")
	fmt.Println("alpha trades that for stale synthetic queries fetching data nobody")
	fmt.Println("wants. Where the balance tips depends on the workload's churn and")
	fmt.Println("overlap; the paper's Figure 4(b) finds alpha = 0.6 best on its")
	fmt.Println("random workload (see EXPERIMENTS.md for our measurements).")
}
