package federation

import (
	"fmt"
	"testing"
)

// oneSessionPerShard fails unless every shard gateway holds exactly one
// session — the router's own upstream one — a crashed shard by its final
// counters.
func oneSessionPerShard(t *testing.T, r *Router, step string) {
	t.Helper()
	for i := 0; i < r.Shards(); i++ {
		st, err := r.ShardStats(i)
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveSessions != 1 {
			t.Fatalf("%s: shard %d holds %d sessions, want 1", step, i, st.ActiveSessions)
		}
	}
}

// TestRouterShardSessionsSurviveCrashAndClose: client sessions never reach
// a shard, so a crash, a WAL recovery and the clients' closes leave each
// shard holding the router's session alone — nothing replays as a detached
// session the shard can never reap.
func TestRouterShardSessionsSurviveCrashAndClose(t *testing.T) {
	r := newTestRouter(t, Config{WALDir: t.TempDir()})
	oneSessionPerShard(t, r, "new")
	var sessions []*Session
	for _, name := range []string{"client-b", "client-d"} {
		s, err := r.Register(name)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		stageSub(t, s, "SELECT SUM(light) EPOCH DURATION 8192ms")
	}
	oneSessionPerShard(t, r, "register")
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	oneSessionPerShard(t, r, "subscribe")
	if err := r.CrashShard(1); err != nil {
		t.Fatal(err)
	}
	oneSessionPerShard(t, r, "crash")
	if err := r.RecoverShard(1); err != nil {
		t.Fatal(err)
	}
	oneSessionPerShard(t, r, "recover")
	for _, s := range sessions {
		if err := s.CloseAsync(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Advance(testQuantum); err != nil {
		t.Fatal(err)
	}
	oneSessionPerShard(t, r, "close")
	if st := r.FedStats(); st.ActiveSessions != 0 || st.Trees != 0 || st.UpstreamSubs != 0 {
		t.Fatalf("after close: %d sessions, %d trees, %d upstreams; want none", st.ActiveSessions, st.Trees, st.UpstreamSubs)
	}
}

// TestRouterRegistersWhileAShardIsDown: whichever shard is down, every name
// registers, and a session detached during the outage re-attaches by its
// token across the shard's recovery.
func TestRouterRegistersWhileAShardIsDown(t *testing.T) {
	r := newTestRouter(t, Config{WALDir: t.TempDir()})
	for down := 0; down < r.Shards(); down++ {
		if err := r.CrashShard(down); err != nil {
			t.Fatal(err)
		}
		oneSessionPerShard(t, r, "crash")
		var sessions []*Session
		for i := 0; i < 8; i++ {
			s, err := r.Register(fmt.Sprintf("down%d-%d", down, i))
			if err != nil {
				t.Fatalf("shard %d down: %v", down, err)
			}
			sessions = append(sessions, s)
		}
		oneSessionPerShard(t, r, "register")
		held := sessions[0]
		if err := held.Detach(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		oneSessionPerShard(t, r, "detach")
		if err := r.RecoverShard(down); err != nil {
			t.Fatal(err)
		}
		oneSessionPerShard(t, r, "recover")
		s, _, err := r.Attach(held.Name(), held.Token())
		if err != nil {
			t.Fatalf("attach across shard %d's recovery: %v", down, err)
		}
		if s != held {
			t.Fatal("attach returned a different session")
		}
		tk := stageSub(t, s, "SELECT COUNT(light) EPOCH DURATION 8192ms")
		if _, err := r.Advance(testQuantum); err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("subscribe after shard %d's recovery: %v", down, err)
		}
		oneSessionPerShard(t, r, "attach")
	}
}
