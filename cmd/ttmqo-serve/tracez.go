package main

import (
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"

	"repro/internal/tracing"
)

// traceSet owns the per-tier causal-trace flight recorders for one serve
// deployment. The recorders are caller-owned, so they survive the tier
// that crashed beneath them (gateway.Recover reuses the same Config and
// keeps appending to the same ring), and everything the admin plane
// serves — the /tracez span trees, the per-trace JSON export, the
// ttmqo_trace_* metric families — reads from this one set.
type traceSet struct {
	mu   sync.Mutex
	recs []*tracing.Recorder
}

func newTraceSet() *traceSet { return &traceSet{} }

// rec mounts one tier's flight recorder.
func (t *traceSet) rec(tier string) *tracing.Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := tracing.New(tier, 0)
	t.recs = append(t.recs, r)
	return r
}

// shardRecs mounts one gateway recorder per shard up front, so a shard
// rebuilt after a crash keeps its flight history instead of starting an
// empty ring.
func (t *traceSet) shardRecs(n int) func(int) *tracing.Recorder {
	recs := make([]*tracing.Recorder, n)
	for i := range recs {
		recs[i] = t.rec(tracing.TierGateway)
	}
	return func(i int) *tracing.Recorder { return recs[i] }
}

func (t *traceSet) recorders() []*tracing.Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*tracing.Recorder(nil), t.recs...)
}

func (t *traceSet) collect() *tracing.Export { return tracing.Collect(t.recorders()...) }

// renderTrees writes the /tracez cross-tier span-tree view.
func (t *traceSet) renderTrees(w io.Writer) { tracing.RenderTrees(w, t.collect()) }

// traceJSON serves /tracez?trace=<id>: one trace's spans as JSON. IDs
// parse as decimal or as the hex the tree view prints; the literal "all"
// exports every trace (the whole flight-recorder contents).
func (t *traceSet) traceJSON(id string) ([]byte, bool) {
	e := t.collect()
	if id == "all" {
		return e.JSON(), true
	}
	n, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		n, err = strconv.ParseUint(id, 16, 64)
		if err != nil {
			return nil, false
		}
	}
	tr, ok := e.Trace(n)
	if !ok {
		return nil, false
	}
	data, merr := json.MarshalIndent(tr, "", "  ")
	if merr != nil {
		return nil, false
	}
	return append(data, '\n'), true
}

// summary is the /statusz tracing section: per-tier flight-recorder
// occupancy.
func (t *traceSet) summary() any {
	type tierSum struct {
		Tier     string `json:"tier"`
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`
	}
	byTier := map[string]*tierSum{}
	var order []string
	for _, r := range t.recorders() {
		s := byTier[r.Tier()]
		if s == nil {
			s = &tierSum{Tier: r.Tier()}
			byTier[r.Tier()] = s
			order = append(order, r.Tier())
		}
		rec, drop := r.Stats()
		s.Recorded += rec
		s.Dropped += drop
	}
	out := make([]tierSum, 0, len(order))
	for _, tier := range order {
		out = append(out, *byTier[tier])
	}
	return out
}

// dump writes the full trace export to path: the crash drill's
// post-mortem. The rings are owned here, not by the crashed tier, so the
// dump carries everything recorded up to (and including) the crash span.
func (t *traceSet) dump(path string) error {
	return os.WriteFile(path, t.collect().JSON(), 0o644)
}
