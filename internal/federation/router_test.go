package federation

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// The router must be drivable by the TCP server exactly like a gateway.
var _ gateway.Backend = (*Router)(nil)

const testQuantum = 8192 * time.Millisecond

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Side == 0 {
		cfg.Side = 2 // 3 sensors per shard
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func stageSub(t *testing.T, s *Session, text string) *Ticket {
	t.Helper()
	tk, err := s.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// drain appends what a subscription holds to into.
func drain(sub *Sub, into *[]gateway.Update) {
	sub.Session().Read(func() {
		batch, _ := sub.Take(nil)
		*into = append(*into, batch...)
	})
}

// checkStream asserts the delivery invariants: sequence numbers are
// contiguous from 1 and virtual time strictly increases.
func checkStream(t *testing.T, updates []gateway.Update) {
	t.Helper()
	for i, u := range updates {
		if u.Seq != uint64(i+1) {
			t.Fatalf("update %d has seq %d (dupe or gap)", i, u.Seq)
		}
		if i > 0 && u.At <= updates[i-1].At {
			t.Fatalf("update %d at %v, not after %v", i, u.At, updates[i-1].At)
		}
	}
}

func TestRouterMergesAggregatesAcrossShards(t *testing.T) {
	r := newTestRouter(t, Config{})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageSub(t, sess, "SELECT MAX(light), AVG(temp) EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sub.QueryID() == 0 {
		t.Fatal("merged stream has no representative query id")
	}

	var updates []gateway.Update
	for i := 0; i < 4; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	if len(updates) < 2 {
		t.Fatalf("got %d merged updates after 5 quanta, want >= 2", len(updates))
	}
	checkStream(t, updates)
	for _, u := range updates {
		if len(u.Aggs) != 2 {
			t.Fatalf("merged update carries %d aggs, want MAX+AVG", len(u.Aggs))
		}
		if u.Aggs[0].Agg.Op != query.Max || u.Aggs[1].Agg.Op != query.Avg {
			t.Fatalf("downstream agg list = %v, want [MAX AVG]", u.Aggs)
		}
		if len(u.Rows) != 0 {
			t.Fatalf("aggregation update carries %d rows", len(u.Rows))
		}
	}

	st := r.FedStats()
	if st.Trees != 1 || st.UpstreamSubs != 2 {
		t.Fatalf("trees=%d upstreams=%d, want 1 tree fanned to 2 shards", st.Trees, st.UpstreamSubs)
	}
	if st.PartialUpdates < int64(len(updates))*2 {
		t.Fatalf("partials=%d for %d merged updates across 2 shards", st.PartialUpdates, len(updates))
	}
}

func TestRouterRoutesRegionPredicate(t *testing.T) {
	r := newTestRouter(t, Config{})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Global sensors 4..6 live on shard 1 only.
	tk := stageSub(t, sess, "SELECT nodeid, light WHERE nodeid >= 4 EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := r.FedStats(); st.UpstreamSubs != 1 {
		t.Fatalf("single-shard query fanned to %d upstreams", st.UpstreamSubs)
	}

	var updates []gateway.Update
	for i := 0; i < 4; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	checkStream(t, updates)
	rows := 0
	for _, u := range updates {
		for _, row := range u.Rows {
			rows++
			if row.Node < 4 || row.Node > 6 {
				t.Fatalf("row from node %d, want global ids 4..6", row.Node)
			}
			if v, _ := row.Values.Get(field.AttrNodeID); v < 4 || v > 6 {
				t.Fatalf("projected nodeid %g not translated to global ids", v)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no acquisition rows delivered")
	}
}

// TestRouterEmptyShardEpochReleasesWatermark: the merge watermark is
// time-based, not row-based. A spanned shard whose slice contributes zero
// rows in an epoch (here: a selective value filter that some epochs no
// node of shard 1 passes) must still release that epoch when its virtual
// clock passes — an empty contribution is not a stall, unlike a crashed
// or partitioned shard.
func TestRouterEmptyShardEpochReleasesWatermark(t *testing.T) {
	r := newTestRouter(t, Config{})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// nodeid >= 2 spans global sensors 2..6: nodes 2..3 on shard 0 and
	// 4..6 on shard 1. The light filter is selective enough that shard 1
	// has epochs with no qualifying rows while shard 0 still reports.
	tk := stageSub(t, sess, "SELECT nodeid, light WHERE nodeid >= 2 AND light >= 650 EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st := r.FedStats(); st.UpstreamSubs != 2 {
		t.Fatalf("query fanned to %d upstreams, want both shards spanned", st.UpstreamSubs)
	}

	var updates []gateway.Update
	for i := 0; i < 12; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	checkStream(t, updates)
	if len(updates) < 4 {
		t.Fatalf("got %d released epochs, want >= 4", len(updates))
	}

	// Find a released epoch carrying shard-0 rows but none from shard 1,
	// with later epochs released after it: proof the empty contribution
	// did not hold the watermark.
	emptyShard1 := -1
	for i, u := range updates {
		shard0, shard1 := 0, 0
		for _, row := range u.Rows {
			switch {
			case row.Node >= 2 && row.Node <= 3:
				shard0++
			case row.Node >= 4 && row.Node <= 6:
				shard1++
			default:
				t.Fatalf("row from node %d outside the queried region", row.Node)
			}
		}
		if shard0 > 0 && shard1 == 0 {
			emptyShard1 = i
			break
		}
	}
	if emptyShard1 < 0 {
		t.Fatal("no epoch with an empty shard-1 contribution surfaced; filter threshold needs retuning")
	}
	if emptyShard1 == len(updates)-1 {
		t.Fatalf("empty shard-1 epoch %d is the final release: nothing proves the watermark moved past it", emptyShard1)
	}

	st := r.FedStats()
	if st.MergedEpochs != int64(len(updates)) {
		t.Fatalf("merged epochs %d != released updates %d", st.MergedEpochs, len(updates))
	}
}

func TestRouterDedupAndTeardown(t *testing.T) {
	r := newTestRouter(t, Config{})
	alice, _ := r.Register("alice")
	bob, _ := r.Register("bob")
	ta := stageSub(t, alice, "SELECT light, temp EPOCH DURATION 8192ms")
	tb := stageSub(t, bob, "SELECT temp, light EPOCH DURATION 8.192s")
	if _, err := r.Advance(testQuantum); err != nil {
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
	if sa.Key() != sb.Key() {
		t.Fatalf("canonical keys differ: %q vs %q", sa.Key(), sb.Key())
	}
	if sa.Shared() || !sb.Shared() {
		t.Fatalf("shared flags = %v/%v, want false/true", sa.Shared(), sb.Shared())
	}
	st := r.FedStats()
	if st.DedupHits != 1 || st.Trees != 1 || st.UpstreamSubs != 2 {
		t.Fatalf("dedup=%d trees=%d upstreams=%d, want 1/1/2", st.DedupHits, st.Trees, st.UpstreamSubs)
	}

	// Last unsubscribe tears the tree and its canonical upstreams down.
	ua, err := alice.UnsubscribeAsync(sa.ID())
	if err != nil {
		t.Fatal(err)
	}
	ub, err := bob.UnsubscribeAsync(sb.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	if _, err := ua.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := ub.Wait(); err != nil {
		t.Fatal(err)
	}
	if sa.Reason() != gateway.ReasonUnsubscribed {
		t.Fatalf("reason = %v, want unsubscribed", sa.Reason())
	}
	st = r.FedStats()
	if st.Trees != 0 || st.UpstreamSubs != 0 || st.ActiveSubscriptions != 0 {
		t.Fatalf("teardown left trees=%d upstreams=%d subs=%d", st.Trees, st.UpstreamSubs, st.ActiveSubscriptions)
	}
	// The shard gateways must have cancelled the canonical queries too.
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		gst, err := r.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if gst.ActiveSubscriptions != 0 || gst.SharedQueries != 0 {
			t.Fatalf("shard %d keeps %d subs / %d queries after teardown",
				i, gst.ActiveSubscriptions, gst.SharedQueries)
		}
	}
}

func TestRouterCrashRecoverFailover(t *testing.T) {
	r := newTestRouter(t, Config{WALDir: t.TempDir()})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageSub(t, sess, "SELECT MAX(light) EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var updates []gateway.Update
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	healthy := len(updates)

	if err := r.CrashShard(1); err != nil {
		t.Fatal(err)
	}
	if r.ShardStates()[1].Alive {
		t.Fatal("shard 1 still alive after crash")
	}
	// The cross-shard tree stalls at the frozen watermark while shard 0
	// keeps advancing.
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	if len(updates) != healthy {
		t.Fatalf("stream advanced past the dead shard's watermark: %d -> %d updates",
			healthy, len(updates))
	}

	if err := r.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	if len(updates) <= healthy {
		t.Fatalf("no progress after recovery: still %d updates", len(updates))
	}
	checkStream(t, updates)

	st := r.FedStats()
	if st.ShardCrashes != 1 || st.ShardRecoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", st.ShardCrashes, st.ShardRecoveries)
	}
	if st.UpstreamResumes == 0 {
		t.Fatal("recovery resumed no upstream streams")
	}
}

func TestRouterPartitionHeal(t *testing.T) {
	r := newTestRouter(t, Config{})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageSub(t, sess, "SELECT MIN(temp) EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var updates []gateway.Update
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	drain(sub, &updates)
	before := len(updates)

	if err := r.PartitionShard(0); err != nil {
		t.Fatal(err)
	}
	// New cross-shard trees cannot establish canonical upstreams while a
	// planned shard is unreachable.
	tk2 := stageSub(t, sess, "SELECT SUM(light) EPOCH DURATION 8192ms")
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	if _, err := tk2.Wait(); err == nil {
		t.Fatal("subscribe across a partitioned shard must fail")
	}
	if len(updates) != before {
		t.Fatalf("stream advanced past the partitioned shard's watermark: %d -> %d",
			before, len(updates))
	}

	if err := r.HealShard(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &updates)
	}
	if len(updates) <= before {
		t.Fatalf("no progress after heal: still %d updates", len(updates))
	}
	checkStream(t, updates)

	st := r.FedStats()
	if st.Partitions != 1 || st.Heals != 1 {
		t.Fatalf("partitions=%d heals=%d, want 1/1", st.Partitions, st.Heals)
	}
	if st.UpstreamResumes == 0 {
		t.Fatal("heal resumed no upstream streams")
	}

	// The healed fleet serves new subscriptions again.
	tk3 := stageSub(t, sess, "SELECT SUM(light) EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	if _, err := tk3.Wait(); err != nil {
		t.Fatalf("subscribe after heal: %v", err)
	}
}

func TestRouterDetachResumeDownstream(t *testing.T) {
	r := newTestRouter(t, Config{})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	token := sess.Token()
	tk := stageSub(t, sess, "SELECT COUNT(light) EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}

	var updates []gateway.Update
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	drain(sub, &updates)
	seen := uint64(0)
	if n := len(updates); n > 0 {
		seen = updates[n-1].Seq
	}

	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if sub.Reason() != gateway.ReasonDetached {
		t.Fatalf("reason = %v, want detached", sub.Reason())
	}
	// Updates keep flowing into the parked ring while detached.
	for i := 0; i < 2; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
	}

	s2, infos, err := r.Attach("alice", token)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != sub.ID() {
		t.Fatalf("resume infos = %+v, want the one parked stream", infos)
	}
	revived, err := s2.Resume(infos[0].ID, seen)
	if err != nil {
		t.Fatal(err)
	}
	drain(revived, &updates)
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	drain(revived, &updates)
	if uint64(len(updates)) == seen {
		t.Fatal("no updates replayed or delivered after resume")
	}
	checkStream(t, updates)
}

func TestRouterServeStatsAggregates(t *testing.T) {
	r := newTestRouter(t, Config{Shards: 3})
	merges := 0
	r.SetMergeObserver(func(time.Duration) { merges++ })
	for _, name := range []string{"a", "b", "c"} {
		if _, err := r.Register(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	if merges != 1 {
		t.Fatalf("merge latency observed %d times in one Advance", merges)
	}
	st, now, err := r.ServeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 3 || st.ActiveSessions != 3 {
		t.Fatalf("sessions=%d active=%d, want 3/3", st.Sessions, st.ActiveSessions)
	}
	if now != sim.Time(testQuantum) {
		t.Fatalf("virtual now = %v, want %v", now, testQuantum)
	}
}

// TestRouterServeStatsFoldsShardCounters: the stats a sharded stack reports
// over the wire carry the shards' admission and brownout counters. Shard 0
// rate-limits the router's second upstream subscribe, and the one staged
// upstream subscribe per round holds it at half its mailbox bound, so its
// ladder escalates.
func TestRouterServeStatsFoldsShardCounters(t *testing.T) {
	r := newTestRouter(t, Config{Rate: 1e-9, Burst: 1, MaxStaged: 2})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT MAX(light) WHERE nodeid >= 1 AND nodeid <= 2 EPOCH DURATION 8192ms",
		"SELECT MIN(light) WHERE nodeid >= 1 AND nodeid <= 2 EPOCH DURATION 8192ms",
	} {
		stageSub(t, sess, q)
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
	}
	st, _, err := r.ServeStats()
	if err != nil {
		t.Fatal(err)
	}
	var want gateway.Stats
	for i := 0; i < r.Shards(); i++ {
		s, err := r.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		want.RateLimited += s.RateLimited
		want.AdmitErrors += s.AdmitErrors
		want.BrownoutEscalations += s.BrownoutEscalations
		want.BrownoutRecoveries += s.BrownoutRecoveries
	}
	if want.RateLimited == 0 || want.BrownoutEscalations == 0 || r.BrownoutLevel() == resilience.LevelNormal {
		t.Fatalf("setup: shards rate_limited=%d escalations=%d, router rung %v", want.RateLimited, want.BrownoutEscalations, r.BrownoutLevel())
	}
	want.BrownoutLevel = int(r.BrownoutLevel())
	got := gateway.Stats{RateLimited: st.RateLimited, AdmitErrors: st.AdmitErrors, BrownoutLevel: st.BrownoutLevel,
		BrownoutEscalations: st.BrownoutEscalations, BrownoutRecoveries: st.BrownoutRecoveries}
	if got != want {
		t.Fatalf("ServeStats = %+v, want the shards' %+v", got, want)
	}
}

// TestRouterInPlaceSpawnsNothing: a round steps its shards on the caller's
// goroutine — no go statement executes, so the goroutine count never rises
// above where it stood before the first round.
func TestRouterInPlaceSpawnsNothing(t *testing.T) {
	r := newTestRouter(t, Config{Shards: 4})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	tk := stageSub(t, sess, "SELECT MAX(light) EPOCH DURATION 8192ms")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Let goroutines left by earlier tests finish exiting.
	time.Sleep(20 * time.Millisecond)
	before := runtime.NumGoroutine()
	var us []gateway.Update
	for i := 0; i < 200; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		drain(sub, &us)
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("round %d: %d goroutines, %d before the first round", i, n, before)
		}
	}
	if len(us) == 0 {
		t.Fatal("no update delivered")
	}
}

// TestRouterFailedFanoutReleasesStagedSlices: a tree whose subscribe is
// refused by one shard after another shard already staged its slice fails
// as a whole, and the staged slice is unsubscribed when it resolves. It used
// to resolve into a live upstream for a tree that never existed.
func TestRouterFailedFanoutReleasesStagedSlices(t *testing.T) {
	r := newTestRouter(t, Config{MaxStaged: 1})
	sess, err := r.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's mailbox fills with the first query's slice, so the second,
	// which spans both shards, is shed there after staging on shard 0.
	first := stageSub(t, sess, "SELECT MAX(light) WHERE nodeid >= 4 AND nodeid <= 6 EPOCH DURATION 8192ms")
	spanning := stageSub(t, sess, "SELECT SUM(light) WHERE nodeid >= 2 AND nodeid <= 5 EPOCH DURATION 8192ms")
	for i := 0; i < 3; i++ {
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := first.Wait(); err != nil {
		t.Fatalf("the first query: %v", err)
	}
	if _, err := spanning.Wait(); err == nil {
		t.Fatal("a query one of its shards refused was acked")
	}
	st, err := r.ShardStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.ShardStates()[0].Upstreams; n != 0 || st.ActiveSubscriptions != 0 {
		t.Errorf("shard 0 carries %d subscriptions, the router holds %d upstreams there; want 0 and 0", st.ActiveSubscriptions, n)
	}
	if n := r.ShardStates()[1].Upstreams; n != 1 {
		t.Errorf("the router holds %d upstreams on shard 1, want the first query's 1", n)
	}
}
