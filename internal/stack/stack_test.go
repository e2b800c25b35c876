package stack

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/tier"
	"repro/internal/topology"
)

func spec(t *testing.T, shards int, share bool, walDir string) Spec {
	t.Helper()
	s := Spec{Shards: shards, Share: share}
	if shards > 0 {
		s.Router = federation.Config{Side: 3, Seed: 1, WALDir: walDir}
		return s
	}
	topo, err := topology.PaperGrid(3)
	if err != nil {
		t.Fatal(err)
	}
	s.Gateway = gateway.Config{Sim: network.Config{Topo: topo, Scheme: network.TTMQO, Seed: 1}}
	if walDir != "" {
		s.Gateway.WALPath = filepath.Join(walDir, "gw.wal")
	}
	return s
}

// subscribe registers one session on the top tier and commits one
// whole-network aggregate on it.
func subscribe(t *testing.T, st *Stack) (*tier.Session, *tier.Sub) {
	t.Helper()
	sess, err := st.Top().Register("c")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := sess.SubscribeAsync(tier.SubscribeRequest{Query: query.MustParse("SELECT MAX(light) EPOCH DURATION 2048")})
	if err != nil {
		t.Fatal(err)
	}
	advance(t, st, 1)
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return sess, sub
}

func advance(t *testing.T, st *Stack, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if _, err := st.Top().Advance(4096 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

// drain takes what sub holds and counts it.
func drain(sub *tier.Sub) (n int) {
	sub.Session().Read(func() {
		batch, _ := sub.Take(nil)
		n = len(batch)
	})
	return n
}

// TestBuildShapes: each of the four shapes comes back with the handles it
// has and only those, its top tier answers a query, and Sensors counts every
// simulation's nodes but the base stations.
func TestBuildShapes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shards  int
		share   bool
		sensors int
	}{
		{"gateway", 0, false, 8},
		{"share", 0, true, 8},
		{"shards", 2, false, 16},
		{"share over shards", 2, true, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Build(spec(t, tc.shards, tc.share, ""))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if (st.Router != nil) != (tc.shards > 0) || (st.Gateway() != nil) != (tc.shards == 0) || (st.Coord != nil) != tc.share {
				t.Fatalf("handles: router=%v gateway=%v coord=%v", st.Router != nil, st.Gateway() != nil, st.Coord != nil)
			}
			if got := st.Sensors(); got != tc.sensors {
				t.Fatalf("Sensors() = %d, want %d", got, tc.sensors)
			}
			if len(st.Sims) != max(tc.shards, 1) {
				t.Fatalf("%d simulations", len(st.Sims))
			}
			_, sub := subscribe(t, st)
			advance(t, st, 3)
			if drain(sub) == 0 {
				t.Fatal("no update through the top tier")
			}
			if err := st.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestLifetimeRefusedOnEveryShape: a subscription lasts until its last
// subscriber leaves, so every shape's top tier refuses a LIFETIME clause at
// commit, with the one refusal of the canonical subscription form.
func TestLifetimeRefusedOnEveryShape(t *testing.T) {
	_, _, want := gateway.Canonicalize(query.MustParse("SELECT light EPOCH DURATION 8192ms LIFETIME 60s"))
	if want == nil {
		t.Fatal("Canonicalize accepted a LIFETIME query")
	}
	for _, tc := range []struct {
		name   string
		shards int
		share  bool
	}{
		{"gateway", 0, false},
		{"share", 0, true},
		{"shards", 2, false},
		{"share over shards", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Build(spec(t, tc.shards, tc.share, ""))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sess, err := st.Top().Register("c")
			if err != nil {
				t.Fatal(err)
			}
			tk, err := sess.SubscribeAsync(tier.SubscribeRequest{Query: query.MustParse("SELECT MAX(light) EPOCH DURATION 2048 LIFETIME 60s")})
			if err != nil {
				t.Fatal(err)
			}
			advance(t, st, 1)
			if _, err := tk.Wait(); err == nil || err.Error() != want.Error() {
				t.Fatalf("LIFETIME subscribe: got %v, want %q", err, want)
			}
		})
	}
}

// TestCrashRecover: the pair means the same on every shape that has a WAL —
// after Crash(i) and Recover(i) the stream a client already holds on the top
// tier keeps delivering (resumed first when the top tier itself was the one
// that died), and on the single-gateway shapes Gateway() is the successor.
func TestCrashRecover(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		share  bool
	}{
		{"gateway", 0, false},
		{"share", 0, true},
		{"shards", 2, false},
		{"share over shards", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Build(spec(t, tc.shards, tc.share, t.TempDir()))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sess, sub := subscribe(t, st)
			advance(t, st, 2)
			seen := drain(sub)
			before := st.Gateway()
			if err := st.Crash(1); err != nil {
				t.Fatal(err)
			}
			if err := st.Recover(1); err != nil {
				t.Fatal(err)
			}
			if tc.shards == 0 && (st.Gateway() == before || !st.Gateway().Alive()) {
				t.Fatal("Gateway() is not a live successor")
			}
			switch {
			case tc.share && tc.shards == 0:
				if got := st.Coord.ShareStats().Reattaches; got != 1 {
					t.Fatalf("coordinator reattaches = %d, want 1", got)
				}
			case tc.shards == 0:
				// The client's own tier died: it re-attaches and resumes.
				sess, _, err := st.Top().Attach("c", sess.Token())
				if err != nil {
					t.Fatal(err)
				}
				if sub, err = sess.Resume(sub.ID(), uint64(seen)); err != nil {
					t.Fatal(err)
				}
			}
			advance(t, st, 3)
			if drain(sub) == 0 {
				t.Fatalf("stream delivered nothing after recovery (%d before)", seen)
			}
		})
	}
}
