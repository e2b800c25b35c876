package gateway

import (
	"testing"
	"time"
)

// These tests pin the dedup cache across the full subscription lifecycle:
// churn through last-unsubscribe and through detach/resume must never leave
// a stale entry in the cache or let it grow past the live query set.

const churnQuantum = 8192 * time.Millisecond

// TestInternChurnReSharesAfterLastUnsubscribe: dropping the last subscriber
// of a canonical query removes its cache entry; a later re-subscribe of the
// same canonical text must mint a fresh shared entry and dedup against it —
// no stale misses, no cache growth.
func TestInternChurnReSharesAfterLastUnsubscribe(t *testing.T) {
	gw := newTestGateway(t, Config{SessionQuota: 64, Rate: 1 << 10, Burst: 1 << 10})
	alice, err := gw.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := gw.Register("bob")
	if err != nil {
		t.Fatal(err)
	}

	const text = "SELECT light, temp WHERE light > 100 EPOCH DURATION 8192ms"
	const rounds = 6
	for i := 0; i < rounds; i++ {
		ta := stage(t, alice, text)
		tb := stage(t, bob, "SELECT temp, light WHERE light > 100 EPOCH DURATION 8192ms")
		if _, err := gw.Advance(churnQuantum); err != nil {
			t.Fatal(err)
		}
		subA, err := ta.Wait()
		if err != nil {
			t.Fatal(err)
		}
		subB, err := tb.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if subA.Group() != subB.Group() {
			t.Fatalf("round %d: equal canonical queries joined distinct groups", i)
		}
		if subA.QueryID() != subB.QueryID() {
			t.Fatalf("round %d: equal canonical queries admitted twice: %d vs %d",
				i, subA.QueryID(), subB.QueryID())
		}
		// Drop both subscribers — the second unsubscribe is the
		// last-unsubscribe that must evict the cache entry.
		ua, err := alice.UnsubscribeAsync(subA.ID())
		if err != nil {
			t.Fatal(err)
		}
		ub, err := bob.UnsubscribeAsync(subB.ID())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gw.Advance(churnQuantum); err != nil {
			t.Fatal(err)
		}
		if _, err := ua.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := ub.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := mustStats(t, gw)
	if st.DedupHits != rounds {
		t.Fatalf("dedup hits = %d, want %d (one per churn round)", st.DedupHits, rounds)
	}
	if st.Admitted != rounds {
		t.Fatalf("admitted = %d, want %d (fresh admission per round after last-unsubscribe)", st.Admitted, rounds)
	}
	if st.ActiveSubscriptions != 0 || st.SharedQueries != 0 {
		t.Fatalf("leftover state: %d subscriptions, %d shared queries", st.ActiveSubscriptions, st.SharedQueries)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(gw.byKey); n != 0 {
		t.Fatalf("dedup entries after churn = %d, want 0", n)
	}
}

// TestInternChurnSharesAcrossDetachResume: a detached session's
// subscription keeps its canonical query admitted, so a new subscriber of
// the same text must dedup against it, and the resumed stream must come
// back on the same shared query — the table holds exactly one key
// throughout.
func TestInternChurnSharesAcrossDetachResume(t *testing.T) {
	gw := newTestGateway(t, Config{SessionQuota: 64})
	alice, err := gw.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	token := alice.Token()

	ta := stage(t, alice, "SELECT light EPOCH DURATION 8192ms")
	if _, err := gw.Advance(churnQuantum); err != nil {
		t.Fatal(err)
	}
	subA, err := ta.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Detach(); err != nil {
		t.Fatal(err)
	}

	// While alice is detached her query stays admitted; bob's semantically
	// equal subscribe must share it, not re-admit.
	bob, err := gw.Register("bob")
	if err != nil {
		t.Fatal(err)
	}
	tb := stage(t, bob, "SELECT light EPOCH DURATION 8192")
	if _, err := gw.Advance(churnQuantum); err != nil {
		t.Fatal(err)
	}
	subB, err := tb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if subB.QueryID() != subA.QueryID() {
		t.Fatalf("detached query re-admitted: %d vs %d", subB.QueryID(), subA.QueryID())
	}
	if !subB.Shared() {
		t.Fatal("subscription against a detached session's query not marked shared")
	}

	// Resume alice: the revived stream is the old handle, in place, and
	// still shares bob's group (and with it the one cache entry).
	sess, infos, err := gw.Attach("alice", token)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("resume infos = %d, want 1", len(infos))
	}
	revived, err := sess.Resume(infos[0].ID, infos[0].LastSeq)
	if err != nil {
		t.Fatal(err)
	}
	if revived != subA || subA.Group() != subB.Group() {
		t.Fatal("resumed subscription is not the old handle on the shared group")
	}
	if revived.QueryID() != subB.QueryID() {
		t.Fatalf("resumed stream on a different query: %d vs %d", revived.QueryID(), subB.QueryID())
	}

	st := mustStats(t, gw)
	if st.Admitted != 1 {
		t.Fatalf("admitted = %d, want 1 (one canonical query throughout)", st.Admitted)
	}
	if st.DedupHits != 1 {
		t.Fatalf("dedup hits = %d, want 1", st.DedupHits)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(gw.byKey); n != 0 {
		t.Fatalf("dedup entries after close = %d, want 0", n)
	}
}
