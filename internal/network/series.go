package network

import (
	"fmt"
	"io"
	"time"

	"repro/internal/topology"
)

// DefaultSampleInterval is the time-series sampling period when none is
// given: one snapshot per maintenance beacon period.
const DefaultSampleInterval = 30 * time.Second

// Sample is one snapshot of a running simulation, taken by the discrete-event
// engine at a fixed virtual-time interval. All cumulative quantities count
// from the start of the run.
type Sample struct {
	// AtMS is the virtual timestamp of the snapshot, in milliseconds.
	AtMS int64 `json:"at_ms"`
	// Messages, Retransmissions, Dropped and Bytes are the radio totals so
	// far (Messages includes retries).
	Messages        int   `json:"messages"`
	Retransmissions int   `json:"retransmissions"`
	Dropped         int   `json:"dropped"`
	Bytes           int64 `json:"bytes"`
	// TxTotalMS / RxTotalMS sum radio-busy time over all nodes; TxMaxMS is
	// the busiest node's transmit time (the lifetime-limiting node).
	TxTotalMS float64 `json:"tx_total_ms"`
	RxTotalMS float64 `json:"rx_total_ms"`
	TxMaxMS   float64 `json:"tx_max_ms"`
	// NodeTxMS / NodeRxMS are the per-node radio-busy trajectories, indexed
	// by NodeID (index 0 is the base station).
	NodeTxMS []float64 `json:"node_tx_ms,omitempty"`
	NodeRxMS []float64 `json:"node_rx_ms,omitempty"`
	// UserQueries and SyntheticQueries mirror the tier-1 optimizer state
	// (without tier 1, SyntheticQueries is 0 and UserQueries counts the live
	// identity-mapped queries). InstalledQueries counts network queries the
	// base station is collecting results for.
	UserQueries      int `json:"user_queries"`
	SyntheticQueries int `json:"synthetic_queries"`
	InstalledQueries int `json:"installed_queries"`
	// QueueDepth and EventsFired expose the discrete-event engine: pending
	// events and cumulative callbacks executed.
	QueueDepth  int    `json:"queue_depth"`
	EventsFired uint64 `json:"events_fired"`
	// RowEpochs / AggEpochs count delivered result epochs; RowsDelivered
	// counts individual acquisition rows.
	RowEpochs     int `json:"row_epochs"`
	AggEpochs     int `json:"agg_epochs"`
	RowsDelivered int `json:"rows_delivered"`
	// Completeness is RowsDelivered divided by full sensor coverage of every
	// delivered acquisition epoch (rows per epoch × sensor count), in [0, 1].
	// It is a coverage proxy: selection predicates legitimately lower it, so
	// its *trajectory* (sudden drops under failures) is the signal, not its
	// absolute level. 1.0 when no acquisition epochs have been delivered.
	Completeness float64 `json:"completeness"`
	// Clipped counts metric updates addressed to out-of-range node IDs (lost
	// accounting; see metrics.Collector).
	Clipped int `json:"clipped"`
}

// Series is the time-ordered sample log of one run.
type Series struct {
	// IntervalMS is the sampling period, in milliseconds of virtual time.
	IntervalMS int64    `json:"interval_ms"`
	Samples    []Sample `json:"samples"`
}

// Len returns the number of samples recorded.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Samples)
}

// csvHeader is the aggregate time-series column set, one sample per row.
const csvHeader = "at_ms,messages,retransmissions,dropped,bytes," +
	"tx_total_ms,rx_total_ms,tx_max_ms," +
	"user_queries,synthetic_queries,installed_queries," +
	"queue_depth,events_fired,row_epochs,agg_epochs,rows_delivered," +
	"completeness,clipped"

// WriteCSV renders the series as one aggregate row per sample (per-node
// trajectories are in WriteNodeCSV and the JSON form).
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, csvHeader); err != nil {
		return err
	}
	for _, p := range s.Samples {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%d\n",
			p.AtMS, p.Messages, p.Retransmissions, p.Dropped, p.Bytes,
			p.TxTotalMS, p.RxTotalMS, p.TxMaxMS,
			p.UserQueries, p.SyntheticQueries, p.InstalledQueries,
			p.QueueDepth, p.EventsFired, p.RowEpochs, p.AggEpochs, p.RowsDelivered,
			p.Completeness, p.Clipped); err != nil {
			return err
		}
	}
	return nil
}

// WriteNodeCSV renders the per-node trajectories in long form
// (at_ms,node,tx_ms,rx_ms), ready for group-by-node plotting.
func (s *Series) WriteNodeCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "at_ms,node,tx_ms,rx_ms"); err != nil {
		return err
	}
	for _, p := range s.Samples {
		for id := range p.NodeTxMS {
			var rx float64
			if id < len(p.NodeRxMS) {
				rx = p.NodeRxMS[id]
			}
			if _, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f\n",
				p.AtMS, id, p.NodeTxMS[id], rx); err != nil {
				return err
			}
		}
	}
	return nil
}

// StartSeries attaches a time-series sampler to the simulation: the
// discrete-event engine snapshots the run's radio, optimizer, engine and
// delivery state every `every` of virtual time (DefaultSampleInterval when
// zero or negative), starting with an initial sample at the current instant.
// Call before Run; the returned series fills as virtual time advances, and
// the run export carries it.
func (s *Simulation) StartSeries(every time.Duration) *Series {
	if every <= 0 {
		every = DefaultSampleInterval
	}
	ser := &Series{IntervalMS: every.Milliseconds()}
	ser.Samples = append(ser.Samples, s.sample())
	var tick func()
	tick = func() {
		ser.Samples = append(ser.Samples, s.sample())
		s.engine.After(every, tick)
	}
	s.engine.After(every, tick)
	s.series = ser
	return ser
}

// sample snapshots the whole simulation at the current virtual instant.
func (s *Simulation) sample() Sample {
	n := s.topo.Size()
	smp := Sample{
		AtMS:             time.Duration(s.engine.Now()).Milliseconds(),
		Messages:         s.coll.Messages(),
		Retransmissions:  s.coll.Retransmissions(),
		Dropped:          s.coll.Dropped(),
		Bytes:            s.coll.Bytes(),
		Clipped:          s.coll.Clipped(),
		InstalledQueries: len(s.installed),
		QueueDepth:       s.engine.Len(),
		EventsFired:      s.engine.Fired(),
	}
	smp.NodeTxMS = make([]float64, n)
	smp.NodeRxMS = make([]float64, n)
	for id := 0; id < n; id++ {
		tx := float64(s.coll.TxTime(topology.NodeID(id))) / float64(time.Millisecond)
		rx := float64(s.coll.RxTime(topology.NodeID(id))) / float64(time.Millisecond)
		smp.NodeTxMS[id] = tx
		smp.NodeRxMS[id] = rx
		smp.TxTotalMS += tx
		smp.RxTotalMS += rx
		if tx > smp.TxMaxMS {
			smp.TxMaxMS = tx
		}
	}
	if s.opt != nil {
		smp.UserQueries = s.opt.UserCount()
		smp.SyntheticQueries = s.opt.SyntheticCount()
	} else {
		smp.UserQueries = len(s.users)
	}
	rowEpochs, aggEpochs, rows := s.results.Totals()
	smp.RowEpochs = rowEpochs
	smp.AggEpochs = aggEpochs
	smp.RowsDelivered = rows
	smp.Completeness = 1
	if sensors := n - 1; rowEpochs > 0 && sensors > 0 {
		smp.Completeness = float64(rows) / float64(rowEpochs*sensors)
	}
	return smp
}
