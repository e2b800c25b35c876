package gateway

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/resilience"
)

// TestEvictionShedRefcountRace races the two overload exits on one
// session: slow-consumer eviction (admitted subscriptions whose updates
// are never drained overflow a one-slot buffer and are swept) against
// admission-control shedding (the same session keeps spamming subscribes
// into a two-slot mailbox, so most are rejected with ErrOverloaded while
// evictions commit on the same Advance boundaries). Every admitted
// subscription shares one canonical query, so a double-release of the
// shared-query refcount — an eviction and a shed resolving the same slot
// — would corrupt the active-subscription and shared-query gauges. Run
// under -race this also exercises the ticket/stats paths for data races.
func TestEvictionShedRefcountRace(t *testing.T) {
	q := query.MustParse("SELECT light EPOCH DURATION 8192ms")
	gw := newTestGateway(t, Config{
		Buffer:       1,
		MaxStaged:    2,
		SessionQuota: 1 << 20,
		Rate:         1 << 20,
		Burst:        1 << 20,
	})
	sess, err := gw.Register("racer")
	if err != nil {
		t.Fatal(err)
	}

	var (
		admitted atomic.Int64
		shed     atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := sess.SubscribeAsync(SubscribeRequest{Query: q})
				if err != nil {
					if errors.Is(err, resilience.ErrOverloaded) {
						shed.Add(1)
						continue
					}
					t.Errorf("SubscribeAsync: %v", err)
					return
				}
				if _, err := tk.Wait(); err != nil {
					if errors.Is(err, resilience.ErrOverloaded) {
						shed.Add(1)
						continue
					}
					t.Errorf("ticket: %v", err)
					return
				}
				// Admitted — and never drained, so the one-slot buffer
				// overflows within a round and the sub is swept.
				admitted.Add(1)
			}
		}()
	}

	for i := 0; i < 60; i++ {
		if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	// Workers parked in tk.Wait need further Advances to resolve their
	// tickets, so keep ticking until they all exit.
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
drain:
	for {
		select {
		case <-workersDone:
			break drain
		default:
			if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Quiesce: commit any still-staged subscribes, then give every
	// admitted-but-undrained sub a full round to overflow and a sweep to
	// collect it.
	for i := 0; i < 4; i++ {
		if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := gw.Stats()
	if shed.Load() == 0 {
		t.Fatal("mailbox bound never shed; the race is vacuous")
	}
	if st.Evicted == 0 {
		t.Fatal("no subscription was evicted; the race is vacuous")
	}
	// The ledger must balance exactly: every admitted subscription is
	// either still live or was evicted — a double-release (or a leaked
	// slot) shows up as an imbalance here.
	if got := int64(st.ActiveSubscriptions) + st.Evicted; got != admitted.Load() {
		t.Fatalf("refcount imbalance: active %d + evicted %d = %d, want admitted %d",
			st.ActiveSubscriptions, st.Evicted, got, admitted.Load())
	}
	// One canonical query: the shared-query gauge is 1 while any sub is
	// live and 0 once all are gone — never negative, never duplicated.
	wantShared := 0
	if st.ActiveSubscriptions > 0 {
		wantShared = 1
	}
	if st.SharedQueries != wantShared {
		t.Fatalf("shared queries = %d with %d live subs, want %d",
			st.SharedQueries, st.ActiveSubscriptions, wantShared)
	}
	if st.Subscribes != admitted.Load() {
		t.Fatalf("committed subscribes = %d, want admitted %d (a shed subscribe was applied)",
			st.Subscribes, admitted.Load())
	}

	// The gateway must still be fully serviceable after the storm.
	tk, err := sess.SubscribeAsync(SubscribeRequest{Query: query.MustParse("SELECT MAX(light) EPOCH DURATION 8192ms")})
	if err != nil {
		t.Fatalf("post-storm subscribe: %v", err)
	}
	if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sub, err := tk.Wait()
	if err != nil {
		t.Fatalf("post-storm subscribe: %v", err)
	}
	if _, err := gw.Advance(8192 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	switch batch, live := takeSub(sub); {
	case len(batch) > 0:
	case !live:
		t.Fatalf("post-storm stream closed immediately (%s)", sub.Reason())
	default:
		t.Fatal("post-storm subscription delivered nothing")
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}
