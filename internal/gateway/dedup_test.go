package gateway

import (
	"fmt"
	"testing"
	"time"
)

// TestDedupSharesInternedKey: semantically equal queries from different
// sessions end up in one group behind one canonical key.
func TestDedupSharesInternedKey(t *testing.T) {
	gw := newTestGateway(t, Config{})
	s1, err := gw.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := gw.Register("bob")
	if err != nil {
		t.Fatal(err)
	}
	t1 := stage(t, s1, "SELECT light, temp EPOCH DURATION 8192ms")
	t2 := stage(t, s2, "SELECT temp, light EPOCH DURATION 8192ms")
	if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sub1, err := t1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := t2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sub1.Group() != sub2.Group() {
		t.Fatalf("dedup'd subscriptions joined distinct groups: %p vs %p", sub1.Group(), sub2.Group())
	}
	if sub1.Key() != sub2.Key() {
		t.Fatalf("canonical text differs: %q vs %q", sub1.Key(), sub2.Key())
	}
}

// TestInternTableBoundedByLiveQueries: the dedup cache shrinks as queries
// are cancelled — no leak across churn.
func TestInternTableBoundedByLiveQueries(t *testing.T) {
	gw := newTestGateway(t, Config{SessionQuota: 64})
	s, err := gw.Register("churner")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tk := stage(t, s, fmt.Sprintf("SELECT light WHERE light > %d EPOCH DURATION 8192ms", i*10))
		if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		sub, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		ut, err := s.UnsubscribeAsync(sub.ID())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if _, err := ut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := gw.Stats()
	if st.ActiveSubscriptions != 0 {
		t.Fatalf("active subscriptions = %d, want 0", st.ActiveSubscriptions)
	}
	// Inspect the loop-owned table via the gateway's own synchronization:
	// after Close the loop has exited and the state is quiescent.
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(gw.byKey); n != 0 {
		t.Fatalf("dedup entries after full churn = %d, want 0", n)
	}
}
