// Package experiments reproduces every figure of the paper's evaluation
// (§4): the Figure 2 worked example, Figure 3's per-workload transmission
// times, Figure 4's benefit-ratio studies, and Figure 5's selectivity
// sweeps. Each runner returns structured rows that cmd/ttmqo-bench prints
// and the root benchmarks execute.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/topology"
)

// fig2Source gives the Figure 2 nodes readings that realize the example's
// two query sets: q_i = {D,E,F,G,H} (light ≥ 400) and q_j = {D,G,H}
// (light ≥ 800). Values are constant in time so the example is exact.
type fig2Source struct{}

func (fig2Source) Reading(id topology.NodeID, a field.Attr, _ sim.Time) float64 {
	if a == field.AttrNodeID {
		return float64(id)
	}
	if a != field.AttrLight {
		return 0
	}
	switch id {
	case topology.Fig2D:
		return 850
	case topology.Fig2E:
		return 500
	case topology.Fig2F:
		return 520
	case topology.Fig2G:
		return 870
	case topology.Fig2H:
		return 860
	default:
		return 100 // base station, A, B, C
	}
}

// Fig2Row is one mode of the worked example.
type Fig2Row struct {
	Mode string // "tinydb" or "dag"
	// Acquisition variant: result messages and involved (transmitting)
	// nodes for the two acquisition queries.
	AcqMessages int
	AcqNodes    int
	// Aggregation variant: result messages for the two MAX queries.
	AggMessages int
	// Paper's expectations.
	WantAcqMessages int
	WantAcqNodes    int
	WantAggMessages int
}

// RunFigure2Example reproduces the §3.2.2 worked example on the Figure 2
// topology: two acquisition queries (20 messages over 8 nodes under TinyDB
// versus 12 over 6 under the query-aware DAG) and two aggregation queries
// (14 versus 7 messages). One epoch is simulated with collisions and
// maintenance disabled so counts are exact.
func RunFigure2Example() ([]Fig2Row, error) {
	run := func(scheme network.Scheme, agg bool) (msgs, nodes int, err error) {
		topo, err := topology.Figure2()
		if err != nil {
			return 0, 0, err
		}
		s, err := network.New(network.Config{
			Topo:                topo,
			Scheme:              scheme,
			Seed:                1,
			Source:              fig2Source{},
			MaintenanceInterval: -1,
		})
		if err != nil {
			return 0, 0, err
		}
		var q1, q2 query.Query
		if agg {
			q1 = query.MustParse("SELECT MAX(light) WHERE light >= 400 EPOCH DURATION 4096")
			q2 = query.MustParse("SELECT MAX(light) WHERE light >= 800 EPOCH DURATION 4096")
		} else {
			q1 = query.MustParse("SELECT nodeid, light WHERE light >= 400 EPOCH DURATION 4096")
			q2 = query.MustParse("SELECT nodeid, light WHERE light >= 800 EPOCH DURATION 4096")
		}
		q1.ID, q2.ID = 1, 2
		s.PostAt(0, q1)
		s.PostAt(0, q2)
		// One epoch: queries fire at 4096ms; stop before the second firing.
		s.Run(8 * time.Second)
		return s.Metrics().MessagesOf("result"), s.Metrics().SendersOf("result"), nil
	}

	var rows []Fig2Row
	for _, mode := range []struct {
		name   string
		scheme network.Scheme
		acqMsg int
		acqN   int
		aggMsg int
	}{
		{"tinydb", network.Baseline, 20, 8, 14},
		{"dag", network.InNetworkOnly, 12, 6, 7},
	} {
		acqMsgs, acqNodes, err := run(mode.scheme, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 2 %s acquisition: %w", mode.name, err)
		}
		aggMsgs, _, err := run(mode.scheme, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 2 %s aggregation: %w", mode.name, err)
		}
		rows = append(rows, Fig2Row{
			Mode:            mode.name,
			AcqMessages:     acqMsgs,
			AcqNodes:        acqNodes,
			AggMessages:     aggMsgs,
			WantAcqMessages: mode.acqMsg,
			WantAcqNodes:    mode.acqN,
			WantAggMessages: mode.aggMsg,
		})
	}
	return rows, nil
}
