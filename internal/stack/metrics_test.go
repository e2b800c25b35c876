package stack

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/telemetry"
	"repro/internal/tier"
	"repro/internal/tracing"
)

var update = flag.Bool("update", false, "rewrite testdata/families.golden from the current mount")

// shapes are the four deployments, in the golden file's order.
var shapes = []struct {
	name   string
	shards int
	share  bool
}{
	{"gateway", 0, false},
	{"share", 0, true},
	{"shards", 2, false},
	{"share over shards", 2, true},
}

// TestRegisterMetricsFamilies pins every shape's metric families — sorted
// (name, kind) pairs, as Stack.RegisterMetrics mounts them — against
// testdata/families.golden. A family renamed, retyped or dropped fails here;
// an added one shows up in the golden's diff (go test -run
// TestRegisterMetricsFamilies -update rewrites it).
func TestRegisterMetricsFamilies(t *testing.T) {
	var b strings.Builder
	for _, sh := range shapes {
		st, err := Build(spec(t, sh.shards, sh.share, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		reg := telemetry.NewRegistry()
		st.RegisterMetrics(reg)
		fmt.Fprintf(&b, "[%s]\n", sh.name)
		for _, f := range reg.Gather() {
			fmt.Fprintf(&b, "%s %s\n", f.Name, f.Kind)
		}
	}
	path := filepath.Join("testdata", "families.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("metric families differ from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has ("-" golden, "+" mounted).
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "-"+l)
		case n < 0:
			out = append(out, "+"+l)
		}
	}
	slices.Sort(out)
	return strings.Join(out, "\n")
}

// TestMetricsHygiene is the registry-wide hygiene gate, per shape: it
// mounts the shape's tier families and the tracing plane on one registry
// over the loaded stack, holds each gathered family to the naming contract
// (ttmqo_ prefix, help text, unit-suffix conventions, a sample under load)
// and the whole scrape to the strict decoder-side validator.
func TestMetricsHygiene(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			s := spec(t, sh.shards, sh.share, "")
			var recs []*tracing.Recorder
			rec := func(tierName string) *tracing.Recorder {
				r := tracing.New(tierName, 0)
				recs = append(recs, r)
				return r
			}
			if sh.shards > 0 {
				s.Router.Tracer = rec(tracing.TierRouter)
				s.Router.ShardTracer = func(int) *tracing.Recorder { return rec(tracing.TierGateway) }
			} else {
				s.Gateway.Tracer = rec(tracing.TierGateway)
			}
			if sh.share {
				s.Coord.Tracer = rec(tracing.TierShare)
			}
			st, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = st.Close() })
			reg := telemetry.NewRegistry()
			st.RegisterMetrics(reg)
			tracing.RegisterMetrics(reg, func() []*tracing.Recorder { return recs })

			// Overlapping region aggregates (shared cells on a share stack, a
			// shard-straddling tree on a router) and enough epochs that
			// deliveries, caches and histograms all have data.
			sess, err := st.Top().Register("alice")
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{
				"SELECT SUM(light) WHERE nodeid >= 1 AND nodeid <= 8 EPOCH DURATION 8192ms",
				"SELECT SUM(light) WHERE nodeid >= 5 AND nodeid <= 12 EPOCH DURATION 8192ms",
			} {
				if _, err := sess.SubscribeAsync(tier.SubscribeRequest{Query: query.MustParse(q)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				if _, err := st.Top().Advance(8192 * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			checkHygiene(t, reg)

			samples, err := telemetry.ParseExposition(reg.Exposition())
			if err != nil {
				t.Fatalf("exposition fails the strict validator: %v", err)
			}
			tiers := map[string]bool{}
			for _, r := range recs {
				tiers[r.Tier()] = true
			}
			for tierName := range tiers {
				if s, ok := telemetry.FindSample(samples, "ttmqo_trace_spans_recorded_total", "tier", tierName); !ok || s.Value <= 0 {
					t.Errorf("tier %s recorded no spans under load", tierName)
				}
			}
		})
	}
}

func checkHygiene(t *testing.T, reg *telemetry.Registry) {
	t.Helper()
	for _, f := range reg.Gather() {
		if !strings.HasPrefix(f.Name, "ttmqo_") {
			t.Errorf("family %s lacks the ttmqo_ namespace prefix", f.Name)
		}
		if strings.TrimSpace(f.Help) == "" {
			t.Errorf("family %s has no help text", f.Name)
		}
		switch f.Kind {
		case telemetry.KindCounter:
			if !strings.HasSuffix(f.Name, "_total") {
				t.Errorf("counter %s does not end in _total", f.Name)
			}
		case telemetry.KindGauge:
			if strings.HasSuffix(f.Name, "_total") {
				t.Errorf("gauge %s ends in _total", f.Name)
			}
		case telemetry.KindHistogram:
			if !strings.HasSuffix(f.Name, "_seconds") {
				t.Errorf("histogram %s does not carry a _seconds unit suffix", f.Name)
			}
			if len(f.Bounds) == 0 {
				t.Errorf("histogram %s has no buckets", f.Name)
			}
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s gathered no samples from the loaded stack", f.Name)
		}
	}
}
