package network

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/tracing"
)

// A failed batch must not leave partial injections in the network: every
// member is checked before anything is admitted.
func TestPostBatchErrorFloodsNothing(t *testing.T) {
	topo := grid4(t)
	s := newSim(t, topo, TTMQO, 3)
	// The second query duplicates the first's explicit ID.
	q1 := query.MustParse("SELECT light EPOCH DURATION 4096")
	q1.ID = 7
	q2 := query.MustParse("SELECT temp EPOCH DURATION 4096")
	q2.ID = 7
	if _, err := s.PostBatch([]query.Query{q1, q2}); err == nil {
		t.Fatal("duplicate-ID batch must error")
	}
	s.Run(10 * time.Second)
	if n := s.Metrics().MessagesOf("query"); n != 0 {
		t.Fatalf("failed batch flooded %d query messages, want 0", n)
	}
	if len(s.installed) != 0 || s.Optimizer().UserCount() != 0 || s.Optimizer().SyntheticCount() != 0 {
		t.Fatalf("failed batch left %d installed, %d user and %d synthetic queries",
			len(s.installed), s.Optimizer().UserCount(), s.Optimizer().SyntheticCount())
	}
	// An invalid query anywhere in the batch is caught up front, too.
	bad := query.Query{} // no attributes, no epoch: fails Validate
	if _, err := s.PostBatch([]query.Query{query.MustParse("SELECT light EPOCH DURATION 4096"), bad}); err == nil {
		t.Fatal("batch with invalid query must error")
	}
	s.Run(10 * time.Second)
	if n := s.Metrics().MessagesOf("query"); n != 0 {
		t.Fatalf("invalid batch flooded %d query messages, want 0", n)
	}
}

// A batch that reuses a live query's ID is rejected whole, under tier 1 and
// without it: nothing is flooded or installed, the optimizer's tables stay as
// they were, and the live query — not part of the batch — goes on delivering
// exactly what a control run without the batch delivers.
func TestRejectedBatchChangesNothing(t *testing.T) {
	for _, scheme := range []Scheme{TTMQO, Baseline} {
		var runs [2]*Simulation
		for i := range runs {
			s := newSim(t, grid4(t), scheme, 1)
			live := query.MustParse("SELECT light EPOCH DURATION 4096")
			if _, err := s.Post(live); err != nil {
				t.Fatal(err)
			}
			s.Run(5 * time.Second)
			if i == 1 {
				queries, installed := s.Metrics().MessagesOf("query"), len(s.installed)
				var synthetic []query.Query
				if o := s.Optimizer(); o != nil {
					synthetic = o.SyntheticQueries()
				}
				dup := query.MustParse("SELECT light WHERE light > 100 EPOCH DURATION 4096")
				dup.ID = 1
				if _, err := s.PostBatch([]query.Query{query.MustParse("SELECT temp EPOCH DURATION 4096"), dup}); err == nil {
					t.Fatalf("%v: batch colliding with a live query must error", scheme)
				}
				if o := s.Optimizer(); o != nil && (o.UserCount() != 1 || !reflect.DeepEqual(o.SyntheticQueries(), synthetic)) {
					t.Fatalf("%v: rejected batch left %d users, synthetic %v (was %v)", scheme, o.UserCount(), o.SyntheticQueries(), synthetic)
				}
				s.Run(time.Second)
				if n := s.Metrics().MessagesOf("query"); n != queries || s.Metrics().MessagesOf("abort") != 0 || len(s.installed) != installed {
					t.Fatalf("%v: rejected batch flooded %d query and %d abort messages, installed %d", scheme,
						n-queries, s.Metrics().MessagesOf("abort"), len(s.installed)-installed)
				}
				s.Run(59 * time.Second)
			} else {
				s.Run(60 * time.Second)
			}
			runs[i] = s
		}
		control, got := runs[0].Results().RowsFor(1), runs[1].Results().RowsFor(1)
		if len(control) == 0 || fmt.Sprint(got) != fmt.Sprint(control) {
			t.Fatalf("%v: live query delivered %d epochs after the rejected batch, control %d", scheme, len(got), len(control))
		}
		if a, b := runs[1].NextID(), runs[0].NextID(); a != b {
			t.Fatalf("%v: next ID %d after the rejected batch, control %d", scheme, a, b)
		}
	}
}

// Cancelling an unknown or already-expired query must not emit a cancel
// trace event (covers a LIFETIME auto-cancel racing a manual cancel).
func TestCancelUnknownEmitsNoTrace(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, TTMQO} {
		buf := tracing.New(tracing.TierNetwork, tracing.Unbounded)
		s, err := New(Config{
			Topo:                grid4(t),
			Scheme:              scheme,
			Seed:                5,
			MaintenanceInterval: -1,
			Trace:               buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Cancel(99); err == nil {
			t.Fatalf("%v: cancel of unknown query must error", scheme)
		}
		if n := buf.CountByKind()[tracing.KindCancel]; n != 0 {
			t.Fatalf("%v: failed cancel emitted %d cancel events, want 0", scheme, n)
		}
		// A real cancel still traces exactly once.
		q := query.MustParse("SELECT light EPOCH DURATION 4096")
		id, err := s.Post(q)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(5 * time.Second)
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
		if n := buf.CountByKind()[tracing.KindCancel]; n != 1 {
			t.Fatalf("%v: cancel events = %d, want 1", scheme, n)
		}
	}
}

func TestManifestIdentifiesRun(t *testing.T) {
	s := newSim(t, grid4(t), TTMQO, 42)
	m := s.Manifest()
	if m.Tool != "ttmqo" || m.Version == "" {
		t.Fatalf("manifest tool identity missing: %+v", m)
	}
	if m.Scheme != "ttmqo" || m.Seed != 42 || m.Nodes != 16 {
		t.Fatalf("manifest fields wrong: %+v", m)
	}
	if m.ConfigHash == "" {
		t.Fatal("manifest must carry a config hash")
	}
	// Different seeds hash differently; same config hashes identically.
	if s2 := newSim(t, grid4(t), TTMQO, 43); s2.Manifest().ConfigHash == m.ConfigHash {
		t.Fatal("different seeds must produce different config hashes")
	}
	if s3 := newSim(t, grid4(t), TTMQO, 42); s3.Manifest() != m {
		t.Fatal("identical configs must produce identical manifests")
	}
}

func TestSeriesSamplesRun(t *testing.T) {
	s := newSim(t, grid4(t), TTMQO, 11)
	ser := s.StartSeries(10 * time.Second)
	q := query.MustParse("SELECT light EPOCH DURATION 4096")
	if _, err := s.Post(q); err != nil {
		t.Fatal(err)
	}
	s.Run(60 * time.Second)

	// t=0 plus one sample per 10s interval.
	if ser.Len() != 7 {
		t.Fatalf("samples = %d, want 7", ser.Len())
	}
	first, last := ser.Samples[0], ser.Samples[len(ser.Samples)-1]
	if first.AtMS != 0 || last.AtMS != 60_000 {
		t.Fatalf("sample timestamps wrong: first=%d last=%d", first.AtMS, last.AtMS)
	}
	if last.Messages == 0 || last.TxTotalMS == 0 {
		t.Fatalf("final sample recorded no radio activity: %+v", last)
	}
	if last.UserQueries != 1 || last.SyntheticQueries != 1 || last.InstalledQueries != 1 {
		t.Fatalf("optimizer state wrong in sample: %+v", last)
	}
	if last.RowEpochs == 0 || last.RowsDelivered == 0 {
		t.Fatalf("no deliveries sampled: %+v", last)
	}
	if len(last.NodeTxMS) != 16 {
		t.Fatalf("per-node trajectory has %d entries, want 16", len(last.NodeTxMS))
	}
	// Monotone cumulative counters.
	for i := 1; i < len(ser.Samples); i++ {
		if ser.Samples[i].Messages < ser.Samples[i-1].Messages {
			t.Fatalf("messages not monotone at sample %d", i)
		}
	}
}

// The series CSV is a pure function of the run configuration: two identical
// runs export identical bytes.
func TestSeriesCSVDeterministic(t *testing.T) {
	runOnce := func() []byte {
		s := newSim(t, grid4(t), TTMQO, 17)
		ser := s.StartSeries(15 * time.Second)
		q := query.MustParse("SELECT light, temp WHERE light > 200 EPOCH DURATION 4096")
		if _, err := s.Post(q); err != nil {
			t.Fatal(err)
		}
		s.Run(90 * time.Second)
		var buf bytes.Buffer
		if err := ser.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		var nodeBuf bytes.Buffer
		if err := ser.WriteNodeCSV(&nodeBuf); err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), nodeBuf.Bytes()...)
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatal("series CSV differs between identical runs")
	}
}
