package gateway

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/topology"
)

// walConfig builds a small gateway config with crash recovery enabled.
func walConfig(t *testing.T, wal string) Config {
	t.Helper()
	topo, err := topology.PaperGrid(2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Sim:     network.Config{Topo: topo, Scheme: network.TTMQO, Seed: 1},
		WALPath: wal,
	}
}

// takeSub hands over what sub holds, as its reader's Take does, and reports
// whether the stream is still live.
func takeSub(sub *Subscription) (batch []Update, live bool) {
	sub.Session().Read(func() { batch, live = sub.Take(nil) })
	return batch, live
}

// drain takes what a subscription holds.
func drain(sub *Subscription) []Update {
	batch, _ := takeSub(sub)
	return batch
}

// recvN takes the first n updates a subscription holds, failing when it
// holds fewer.
func recvN(t *testing.T, sub *Subscription, n int) []Update {
	t.Helper()
	batch, live := takeSub(sub)
	if len(batch) < n {
		t.Fatalf("stream (live %v, reason %s) held %d of %d updates", live, sub.Reason(), len(batch), n)
	}
	return batch[:n]
}

// TestCrashRecoverResumeExactlyOnce is the core recovery contract at the
// API level: a crash closes live streams with ReasonCrashed, Recover
// rebuilds the gateway from the WAL by deterministic replay, Attach with
// the session token lists the resumable streams, and Resume redelivers the
// replayed history with the exact sequence numbers and timestamps of the
// original run — then continues live with the next number.
func TestCrashRecoverResumeExactlyOnce(t *testing.T) {
	cfg := walConfig(t, filepath.Join(t.TempDir(), "gw.wal"))
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := gw.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	ti, err := sess.SubscribeAsync(SubscribeRequest{Query: query.MustParse("SELECT light EPOCH DURATION 2048")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Advance(2048 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sub, err := ti.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var before []Update
	before = append(before, drain(sub)...)
	for i := 0; i < 3; i++ {
		if _, err := gw.Advance(2048 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		before = append(before, drain(sub)...)
	}
	if len(before) == 0 {
		t.Fatal("no updates before the crash")
	}
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}
	// The crash closes the stream; anything stranded in its buffer is
	// still readable and counts toward the client's cursor.
	before = append(before, drain(sub)...)
	if sub.Reason() != ReasonCrashed {
		t.Fatalf("close reason = %s, want crashed", sub.Reason())
	}
	for i, u := range before {
		if u.Seq != uint64(i+1) {
			t.Fatalf("pre-crash seq[%d] = %d, want contiguous from 1", i, u.Seq)
		}
	}
	last := before[len(before)-1].Seq

	g2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	s2, infos, err := g2.Attach("alice", sess.Token())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != sub.ID() {
		t.Fatalf("resume infos = %+v, want the one subscription", infos)
	}
	if infos[0].LastSeq != last {
		t.Fatalf("replayed LastSeq = %d, want %d", infos[0].LastSeq, last)
	}

	// Resume from zero: the whole history must come back from the resume
	// ring, byte-for-byte equal in sequence and virtual timestamp.
	r2, err := s2.Resume(infos[0].ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	again := recvN(t, r2, len(before))
	for i, u := range again {
		if u.Seq != before[i].Seq || u.At != before[i].At || len(u.Rows) != len(before[i].Rows) {
			t.Fatalf("replayed update %d = (seq=%d at=%v rows=%d), original (seq=%d at=%v rows=%d)",
				i, u.Seq, u.At, len(u.Rows), before[i].Seq, before[i].At, len(before[i].Rows))
		}
	}

	// The stream continues live exactly where it left off.
	if _, err := g2.Advance(2048 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	next := recvN(t, r2, 1)
	if next[0].Seq != last+1 {
		t.Fatalf("post-recovery seq = %d, want %d", next[0].Seq, last+1)
	}
	st := g2.Stats()
	if st.Recoveries != 1 || st.Attaches != 1 || st.Resumes != 1 || st.ResumeGaps != 0 {
		t.Fatalf("recovery counters: %+v", st)
	}
}

// TestRecoverIsDeterministic: two independent recoveries of the same WAL
// bytes agree on every counter — replay is a pure function of the log.
func TestRecoverIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(t, filepath.Join(dir, "gw.wal"))
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := gw.Register("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := gw.Register("b")
	if err != nil {
		t.Fatal(err)
	}
	ta := stage(t, a, "SELECT light EPOCH DURATION 2048")
	tb := stage(t, b, "SELECT temp WHERE temp >= 10 EPOCH DURATION 4096")
	if _, err := gw.Advance(4096 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sa, err := ta.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Wait(); err != nil {
		t.Fatal(err)
	}
	tu, err := a.UnsubscribeAsync(sa.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Advance(4096 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := tu.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}

	// Recovery compacts the log in place, so each recovery gets its own
	// copy of the crashed bytes.
	raw, err := os.ReadFile(cfg.WALPath)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]Stats, 2)
	for i := range stats {
		c := cfg
		c.WALPath = filepath.Join(dir, "copy"+string(rune('0'+i))+".wal")
		if err := os.WriteFile(c.WALPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Recover(c)
		if err != nil {
			t.Fatal(err)
		}
		st := g.Stats()
		stats[i] = st
		_ = g.Close()
	}
	if stats[0] != stats[1] {
		t.Fatalf("recoveries disagree:\n%+v\n%+v", stats[0], stats[1])
	}
	if stats[0].Subscribes != 2 || stats[0].Unsubscribes != 1 || stats[0].ActiveSubscriptions != 1 {
		t.Fatalf("replayed history wrong: %+v", stats[0])
	}
}

// TestAttachRejectsBadCredentials: a wrong token and an unknown session
// name must both be refused — the token is what stops one harness client
// from hijacking another's streams after a crash.
func TestAttachRejectsBadCredentials(t *testing.T) {
	cfg := walConfig(t, filepath.Join(t.TempDir(), "gw.wal"))
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	sess, err := gw.Register("carol")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gw.Attach("carol", "not-the-token"); err == nil {
		t.Fatal("attach with a wrong token succeeded")
	}
	if _, _, err := gw.Attach("nobody", sess.Token()); err == nil {
		t.Fatal("attach to an unknown session succeeded")
	}
	if _, _, err := gw.Attach("carol", sess.Token()); err != nil {
		t.Fatalf("legitimate re-attach failed: %v", err)
	}
}

// TestIdleReapClosesDetachedSessions: a detached session that nobody
// re-claims is reaped once virtual time passes the idle timeout, releasing
// its subscriptions (and their shared queries).
func TestIdleReapClosesDetachedSessions(t *testing.T) {
	cfg := walConfig(t, filepath.Join(t.TempDir(), "gw.wal"))
	cfg.IdleTimeout = 10 * time.Second
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	sess, err := gw.Register("dora")
	if err != nil {
		t.Fatal(err)
	}
	ts := stage(t, sess, "SELECT light EPOCH DURATION 2048")
	if _, err := gw.Advance(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Advance(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := mustStats(t, gw); st.IdleReaped != 0 {
		t.Fatalf("reaped before the timeout: %+v", st)
	}
	// Reap runs at the start of each Advance, so the timeout must have
	// expired before the quantum that notices it.
	if _, err := gw.Advance(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Advance(time.Second); err != nil {
		t.Fatal(err)
	}
	st := mustStats(t, gw)
	if st.IdleReaped != 1 || st.ActiveSessions != 0 || st.ActiveSubscriptions != 0 {
		t.Fatalf("idle session not reaped: %+v", st)
	}
	if _, _, err := gw.Attach("dora", sess.Token()); err == nil {
		t.Fatal("attach to a reaped session succeeded")
	}
}

// TestWALCompactionKeepsRecovery: with an aggressive snapshot cadence the
// log is rewritten repeatedly mid-run, and a crash after many compactions
// still recovers the full session state.
func TestWALCompactionKeepsRecovery(t *testing.T) {
	cfg := walConfig(t, filepath.Join(t.TempDir(), "gw.wal"))
	cfg.SnapshotEvery = 2
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := gw.Register("erin")
	if err != nil {
		t.Fatal(err)
	}
	tc := stage(t, sess, "SELECT light EPOCH DURATION 2048")
	if _, err := gw.Advance(2048 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sub, err := tc.Wait()
	if err != nil {
		t.Fatal(err)
	}
	total := len(drain(sub))
	for i := 0; i < 9; i++ {
		if _, err := gw.Advance(2048 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		total += len(drain(sub))
	}
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}
	g2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	_, infos, err := g2.Attach("erin", sess.Token())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].LastSeq < uint64(total) {
		t.Fatalf("compacted log lost state: infos=%+v total=%d", infos, total)
	}
	if st := mustStats(t, g2); st.Recoveries != 1 {
		t.Fatalf("stats after compacted recovery: %+v", st)
	}
}
