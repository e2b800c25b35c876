package gateway

import (
	"fmt"
	"testing"
	"time"
)

func TestInternTable(t *testing.T) {
	tab := newInternTable(0)
	a := tab.intern("SELECT light EPOCH DURATION 2048ms")
	b := tab.intern("SELECT light EPOCH DURATION 2048ms")
	if a != b {
		t.Fatal("interning the same string twice returned distinct pointers")
	}
	c := tab.intern("SELECT temp EPOCH DURATION 2048ms")
	if a == c {
		t.Fatal("distinct strings interned to the same pointer")
	}
	if tab.size() != 2 {
		t.Fatalf("size = %d, want 2", tab.size())
	}
	tab.drop(a)
	if tab.size() != 1 {
		t.Fatalf("size after drop = %d, want 1", tab.size())
	}
	// A dropped key's pointer stays usable; re-interning mints a fresh one.
	if a.String() != "SELECT light EPOCH DURATION 2048ms" {
		t.Fatalf("dropped key lost its string: %q", a.String())
	}
	d := tab.intern("SELECT light EPOCH DURATION 2048ms")
	if d == a {
		t.Fatal("re-intern after drop returned the dropped pointer")
	}
	var nilKey *internedKey
	if nilKey.String() != "" {
		t.Fatal("nil key String() not empty")
	}
	tab.drop(nil) // must not panic
}

// TestDedupSharesInternedKey: semantically equal queries from different
// sessions end up in one group behind one interned key — the property that
// turns key comparisons into pointer compares.
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
		t.Fatalf("dedup'd subscriptions joined distinct groups (one interned key each): %p vs %p", sub1.Group(), sub2.Group())
	}
	if sub1.Key() != sub2.Key() {
		t.Fatalf("canonical text differs: %q vs %q", sub1.Key(), sub2.Key())
	}
}

// TestInternTableBoundedByLiveQueries: the table shrinks as queries are
// cancelled — no leak across churn.
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
	st, err := gw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ActiveSubscriptions != 0 {
		t.Fatalf("active subscriptions = %d, want 0", st.ActiveSubscriptions)
	}
	// Inspect the loop-owned table via the gateway's own synchronization:
	// after Close the loop has exited and the state is quiescent.
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if n := gw.keys.size(); n != 0 {
		t.Fatalf("interned keys after full churn = %d, want 0", n)
	}
}

// BenchmarkInternLookup quantifies the dedup cache's pointer-keyed lookup
// against the string-keyed map it replaced, at a realistic key length.
func BenchmarkInternLookup(b *testing.B) {
	const n = 64
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("SELECT light, temp, humidity WHERE light > %d AND temp < 50 GROUP BY nodeid EPOCH DURATION 8192ms", i)
	}
	b.Run("string-keyed", func(b *testing.B) {
		b.ReportAllocs()
		m := make(map[string]*shared, n)
		for _, k := range keys {
			m[k] = &shared{}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m[keys[i%n]] == nil {
				b.Fatal("miss")
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		tab := newInternTable(n)
		m := make(map[*internedKey]*shared, n)
		ks := make([]*internedKey, n)
		for i, k := range keys {
			ks[i] = tab.intern(k)
			m[ks[i]] = &shared{}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m[ks[i%n]] == nil {
				b.Fatal("miss")
			}
		}
	})
}
