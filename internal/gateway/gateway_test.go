package gateway

import (
	"errors"
	"maps"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/topology"
)

// newTestGateway builds a small gateway and arranges its teardown.
func newTestGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	if cfg.Sim.Topo == nil {
		topo, err := topology.PaperGrid(2)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sim.Topo = topo
	}
	if cfg.Sim.Scheme == 0 {
		cfg.Sim.Scheme = network.TTMQO
	}
	if cfg.Sim.Seed == 0 {
		cfg.Sim.Seed = 1
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })
	return gw
}

// stage subscribes asynchronously and fails the test on a staging error.
func stage(t *testing.T, sess *Session, text string) *Ticket {
	t.Helper()
	ti, err := sess.SubscribeAsync(SubscribeRequest{Query: query.MustParse(text)})
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

func mustStats(t *testing.T, gw *Gateway) Stats {
	t.Helper()
	st := gw.Stats()
	return st
}

// TestGatewayDedupSharesQuery: two clients subscribing semantically equal
// (textually different) queries share one admitted in-network query.
func TestGatewayDedupSharesQuery(t *testing.T) {
	gw := newTestGateway(t, Config{})
	alice, err := gw.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := gw.Register("bob")
	if err != nil {
		t.Fatal(err)
	}

	ta := stage(t, alice, "SELECT MAX(light) WHERE temp > 20 AND humidity < 80 EPOCH DURATION 8192ms")
	tb := stage(t, bob, "SELECT MAX(light) WHERE humidity < 80 AND temp > 20 EPOCH DURATION 8.192s")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sa, err := ta.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := tb.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if sa.Shared() {
		t.Errorf("first subscriber marked shared")
	}
	if !sb.Shared() {
		t.Errorf("second subscriber not marked shared")
	}
	if sa.QueryID() != sb.QueryID() {
		t.Errorf("query IDs differ: %d vs %d", sa.QueryID(), sb.QueryID())
	}
	if sa.Key() != sb.Key() {
		t.Errorf("canonical keys differ: %q vs %q", sa.Key(), sb.Key())
	}
	st := mustStats(t, gw)
	if st.Admitted != 1 || st.DedupHits != 1 {
		t.Errorf("admitted=%d dedup_hits=%d, want 1/1", st.Admitted, st.DedupHits)
	}
	if st.SharedQueries != 1 || st.ActiveSubscriptions != 2 {
		t.Errorf("shared=%d active=%d, want 1/2", st.SharedQueries, st.ActiveSubscriptions)
	}
	if r := st.DedupRatio(); r != 2 {
		t.Errorf("dedup ratio %v, want 2", r)
	}
}

// TestGatewayRefcountCancel: the shared query survives the first
// unsubscribe and is cancelled by the last.
func TestGatewayRefcountCancel(t *testing.T) {
	gw := newTestGateway(t, Config{})
	alice, _ := gw.Register("alice")
	bob, _ := gw.Register("bob")
	ta := stage(t, alice, "SELECT light EPOCH DURATION 8192ms")
	tb := stage(t, bob, "SELECT light EPOCH DURATION 8192ms")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sa, _ := ta.Wait()
	sb, _ := tb.Wait()

	tu, err := alice.UnsubscribeAsync(sa.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := tu.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, gw); st.Cancelled != 0 || st.SharedQueries != 1 {
		t.Fatalf("query cancelled with a live subscriber: %+v", st)
	}
	if sa.Reason() != ReasonUnsubscribed {
		t.Errorf("reason %v, want unsubscribed", sa.Reason())
	}

	tu, err = bob.UnsubscribeAsync(sb.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := tu.Wait(); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, gw)
	if st.Cancelled != 1 || st.SharedQueries != 0 || st.ActiveSubscriptions != 0 {
		t.Fatalf("last unsubscribe did not cancel: %+v", st)
	}
}

// TestGatewayBackpressureEviction: a subscriber that never drains is evicted
// at its buffer bound while a fast co-subscriber of the same shared query
// keeps receiving every epoch; the eviction is visible in the stats and the
// run export.
func TestGatewayBackpressureEviction(t *testing.T) {
	const buffer = 2
	gw := newTestGateway(t, Config{Buffer: buffer})
	fast, _ := gw.Register("fast")
	slow, _ := gw.Register("slow")
	tf := stage(t, fast, "SELECT light EPOCH DURATION 2048ms")
	ts := stage(t, slow, "SELECT light EPOCH DURATION 2048ms")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	fs, err := tf.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := ts.Wait()
	if err != nil {
		t.Fatal(err)
	}

	received := 0
	for round := 0; round < 8; round++ {
		if _, err := gw.Advance(2048 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		// The fast client drains after every tick; the slow one never reads.
		batch, live := takeSub(fs)
		if !live {
			t.Fatalf("fast subscriber closed: %v", fs.Reason())
		}
		received += len(batch)
	}

	st := mustStats(t, gw)
	if st.Epochs == 0 {
		t.Fatalf("no epochs delivered")
	}
	if received != int(st.Epochs) {
		t.Errorf("fast subscriber got %d of %d epochs", received, st.Epochs)
	}
	if st.Evicted != 1 {
		t.Errorf("evicted=%d, want 1", st.Evicted)
	}
	if st.Dropped == 0 {
		t.Errorf("no drops recorded for the stalled subscriber")
	}
	// The stalled subscriber's stream is closed with the eviction reason
	// behind its buffered backlog (exactly the buffer bound).
	backlog, live := takeSub(ss)
	if len(backlog) != buffer || live {
		t.Errorf("stalled backlog %d (live %v), want %d and closed", len(backlog), live, buffer)
	}
	if ss.Reason() != ReasonEvicted {
		t.Errorf("reason %v, want evicted", ss.Reason())
	}
	// The shared query must survive: the fast subscriber still holds it.
	if st.Cancelled != 0 || st.SharedQueries != 1 {
		t.Errorf("eviction cancelled a query with live subscribers: %+v", st)
	}

	exp := gw.Export()
	if exp.Gateway == nil {
		t.Fatal("export missing gateway block")
	}
	if exp.Gateway.Evicted != 1 || exp.Gateway.Dropped != st.Dropped {
		t.Errorf("export gateway block disagrees: %+v", exp.Gateway)
	}
}

// TestGatewayEvictionReleasesRefcount: evicting the sole subscriber of a
// shared query must release its refcount and cancel the admitted query
// upstream, exactly like an explicit unsubscribe would — and a later
// subscriber to the same canonical query re-admits it from scratch.
func TestGatewayEvictionReleasesRefcount(t *testing.T) {
	const buffer = 2
	gw := newTestGateway(t, Config{Buffer: buffer})
	slow, _ := gw.Register("slow")
	ts := stage(t, slow, "SELECT light EPOCH DURATION 2048ms")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ss, err := ts.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, gw); st.Admitted != 1 || st.SharedQueries != 1 {
		t.Fatalf("admission accounting before eviction: %+v", st)
	}

	// Never drain: the buffer fills, the overflow marks the subscriber for
	// eviction, and the following Advance sweeps it out.
	for round := 0; round < 8; round++ {
		if _, err := gw.Advance(2048 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := mustStats(t, gw)
	if st.Evicted != 1 {
		t.Fatalf("evicted=%d, want 1", st.Evicted)
	}
	if ss.Reason() != ReasonEvicted {
		t.Errorf("reason %v, want evicted", ss.Reason())
	}
	// The regression under test: with no other subscriber holding the
	// canonical query, the eviction must drop the refcount to zero and
	// cancel the in-network query instead of leaking it.
	if st.Cancelled != 1 || st.SharedQueries != 0 || st.ActiveSubscriptions != 0 {
		t.Fatalf("eviction leaked the shared query: %+v", st)
	}

	// A fresh subscriber to the same canonical form is a new admission,
	// not a dedup hit against a ghost entry.
	fresh, _ := gw.Register("fresh")
	tf := stage(t, fresh, "SELECT light EPOCH DURATION 2048ms")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := tf.Wait(); err != nil {
		t.Fatal(err)
	}
	st = mustStats(t, gw)
	if st.Admitted != 2 || st.DedupHits != 0 || st.SharedQueries != 1 {
		t.Fatalf("re-subscribe after eviction did not re-admit: %+v", st)
	}
}

// TestGatewayQuota: per-session subscription quota rejects the overflow
// subscribe without touching the network.
func TestGatewayQuota(t *testing.T) {
	gw := newTestGateway(t, Config{SessionQuota: 1})
	sess, _ := gw.Register("alice")
	t1 := stage(t, sess, "SELECT light EPOCH DURATION 8192ms")
	t2 := stage(t, sess, "SELECT temp EPOCH DURATION 8192ms")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(); err == nil {
		t.Fatal("over-quota subscribe accepted")
	}
	st := mustStats(t, gw)
	if st.QuotaRejected != 1 || st.Admitted != 1 {
		t.Errorf("quota_rejected=%d admitted=%d, want 1/1", st.QuotaRejected, st.Admitted)
	}
}

// TestGatewayRateLimit: the virtual-time token bucket rejects a burst beyond
// its capacity and refills as simulated time advances.
func TestGatewayRateLimit(t *testing.T) {
	gw := newTestGateway(t, Config{Rate: 1, Burst: 1})
	sess, _ := gw.Register("alice")
	t1 := stage(t, sess, "SELECT light EPOCH DURATION 8192ms")
	t2 := stage(t, sess, "SELECT temp EPOCH DURATION 8192ms")
	if _, err := gw.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(); err == nil {
		t.Fatal("burst-exceeding subscribe accepted")
	}
	if st := mustStats(t, gw); st.RateLimited != 1 {
		t.Errorf("rate_limited=%d, want 1", st.RateLimited)
	}
	// One simulated second at Rate 1 restores one token.
	t3 := stage(t, sess, "SELECT temp EPOCH DURATION 8192ms")
	if _, err := gw.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := t3.Wait(); err != nil {
		t.Fatalf("refilled subscribe rejected: %v", err)
	}
}

// TestRefillTopsUpOnlyWhatIsBelowBurst: refill, which writes only the buckets
// below Burst, leaves every bucket — drained, part-full, full — holding, bit
// for bit, what topping up all of them with min(tokens+add, Burst) would,
// over steps of varying length.
func TestRefillTopsUpOnlyWhatIsBelowBurst(t *testing.T) {
	const rate, burst = 0.7, 3.0
	gw := newTestGateway(t, Config{Rate: rate, Burst: burst})
	for _, name := range []string{"drained", "partial", "full"} {
		if _, err := gw.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	buckets := func() map[string]float64 {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		return maps.Clone(gw.buckets)
	}
	var want map[string]float64
	for round := 0; round < 2; round++ {
		gw.mu.Lock()
		gw.buckets["drained"], gw.buckets["partial"] = 0, 1.3
		gw.mu.Unlock()
		want = buckets()
		for _, d := range []time.Duration{time.Millisecond, 333 * time.Millisecond, 0, 2048 * time.Millisecond, 7 * time.Millisecond, 1500 * time.Millisecond, 10 * time.Second} {
			if _, err := gw.Step(d); err != nil {
				t.Fatal(err)
			}
			for name, tokens := range want {
				want[name] = min(tokens+rate*d.Seconds(), burst)
			}
			if got := buckets(); !maps.Equal(got, want) {
				t.Fatalf("after a %v step: buckets %v, want %v", d, got, want)
			}
		}
	}
	if want["drained"] != burst {
		t.Fatalf("drained bucket at %v after the steps, want refilled to %v", want["drained"], burst)
	}
}

// TestGatewayShutdown: Close drains live subscriptions with the shutdown
// reason, fails later commands with ErrClosed, and keeps final stats and
// export readable.
func TestGatewayShutdown(t *testing.T) {
	gw := newTestGateway(t, Config{})
	sess, _ := gw.Register("alice")
	ti := stage(t, sess, "SELECT light EPOCH DURATION 8192ms")
	if _, err := gw.Advance(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sub, err := ti.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, live := takeSub(sub); live || sub.Reason() != ReasonShutdown {
		t.Errorf("reason %v, want shutdown", sub.Reason())
	}
	if _, err := sess.SubscribeAsync(SubscribeRequest{Query: query.MustParse("SELECT light EPOCH DURATION 8192ms")}); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close: %v, want ErrClosed", err)
	}
	if _, err := gw.Register("bob"); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v, want ErrClosed", err)
	}
	st := gw.Stats()
	if st.Cancelled != 1 || st.ActiveSubscriptions != 0 {
		t.Errorf("shutdown left state behind: %+v", st)
	}
	if exp := gw.Export(); exp.Gateway.Cancelled != 1 {
		t.Fatalf("final export: cancelled %d, want 1", exp.Gateway.Cancelled)
	}
}
