// Quickstart: build a simulated 16-node sensor network, pose two TinyDB
// queries through the full TTMQO stack, and read back the answers.
package main

import (
	"fmt"
	"log"
	"time"

	ttmqo "repro"
)

func main() {
	// The paper's evaluation deployment: a 4×4 grid, 20 ft spacing, 50 ft
	// radio range, base station in the corner.
	topo, err := ttmqo.PaperGrid(4)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := ttmqo.NewSimulation(ttmqo.SimulationConfig{
		Topo:   topo,
		Scheme: ttmqo.SchemeTTMQO, // both optimization tiers
		Seed:   7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two similar user queries. The base-station tier will notice that one
	// covers the other's needs and inject a single synthetic query.
	bright, err := sim.Post(ttmqo.MustParseQuery(
		"SELECT nodeid, light WHERE light > 200 EPOCH DURATION 4096ms"))
	if err != nil {
		log.Fatal(err)
	}
	hottest, err := sim.Post(ttmqo.MustParseQuery(
		"SELECT MAX(light) WHERE light > 250 EPOCH DURATION 8192ms"))
	if err != nil {
		log.Fatal(err)
	}

	// Advance two virtual minutes; the discrete-event simulator makes this
	// take milliseconds of real time.
	sim.Run(2 * time.Minute)

	fmt.Printf("two user queries ran as %d synthetic quer(ies)\n\n",
		sim.Optimizer().SyntheticCount())

	rows := sim.Results().RowsFor(bright)
	fmt.Printf("q%d (bright nodes): %d epochs; last epoch:\n", bright, len(rows))
	last := rows[len(rows)-1]
	for _, r := range last.Rows {
		id, _ := r.Values.Get(ttmqo.AttrNodeID)
		light, _ := r.Values.Get(ttmqo.AttrLight)
		fmt.Printf("  node %2.0f: light %6.1f\n", id, light)
	}

	fmt.Printf("\nq%d (MAX light): ", hottest)
	for _, ep := range sim.Results().AggsFor(hottest) {
		if ep.Results[0].Empty {
			fmt.Print("∅ ")
			continue
		}
		fmt.Printf("%.0f ", ep.Results[0].Value)
	}
	fmt.Println()

	fmt.Printf("\nradio: avg transmission time %.4f%%, %s\n",
		sim.AvgTransmissionTime()*100, sim.Metrics())
}
