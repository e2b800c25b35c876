package gateway

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
)

// TestSendCloseRaceDropsNoCommand hammers SubscribeAsync from several
// goroutines while the gateway closes. The seal/drain in shutdown must
// guarantee that every command send accepted (nil error) is answered —
// before the fix, a send racing the loop exit could enqueue into the
// mailbox after the loop stopped reading it, and the ticket resolved only
// via the generic done fallback while the command itself was silently
// dropped. Reading the ticket's own channel (not Wait's fallback) proves
// each accepted command got an explicit reply.
func TestSendCloseRaceDropsNoCommand(t *testing.T) {
	q := query.MustParse("SELECT light EPOCH DURATION 8192ms")
	for iter := 0; iter < 30; iter++ {
		gw := newTestGateway(t, Config{SessionQuota: 1 << 20, Rate: 1 << 20, Burst: 1 << 20})
		sess, err := gw.Register(fmt.Sprintf("hammer-%d", iter))
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu      sync.Mutex
			tickets []*Ticket
			wg      sync.WaitGroup
		)
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					tk, err := sess.SubscribeAsync(SubscribeRequest{Query: q})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("SubscribeAsync: %v", err)
						}
						return
					}
					mu.Lock()
					tickets = append(tickets, tk)
					mu.Unlock()
				}
			}()
		}
		time.Sleep(200 * time.Microsecond)
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i, tk := range tickets {
			select {
			case <-tk.done:
			case <-time.After(10 * time.Second):
				t.Fatalf("iter %d: ticket %d/%d never answered: command dropped at close", iter, i, len(tickets))
			}
		}
		// Sealed mailbox: post-close sends must fail deterministically.
		for i := 0; i < 64; i++ {
			if _, err := sess.SubscribeAsync(SubscribeRequest{Query: q}); !errors.Is(err, ErrClosed) {
				t.Fatalf("post-close SubscribeAsync = %v, want ErrClosed", err)
			}
		}
		if n := len(gw.inbox); n != 0 {
			t.Fatalf("post-close inbox holds %d undrained messages", n)
		}
	}
}

// TestSendAfterCrashSealed: the crash path must seal the mailbox exactly
// like a clean shutdown — post-crash commands and control requests fail
// with ErrClosed and nothing lingers in the inbox.
func TestSendAfterCrashSealed(t *testing.T) {
	gw := newTestGateway(t, Config{})
	sess, err := gw.Register("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("SELECT light EPOCH DURATION 8192ms")
	for i := 0; i < 64; i++ {
		if _, err := sess.SubscribeAsync(SubscribeRequest{Query: q}); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-crash SubscribeAsync = %v, want ErrClosed", err)
		}
		if _, err := gw.Advance(time.Second); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-crash Advance = %v, want ErrClosed", err)
		}
		if err := sess.Detach(); !errors.Is(err, ErrClosed) {
			t.Fatalf("post-crash Detach = %v, want ErrClosed", err)
		}
	}
	if n := len(gw.inbox); n != 0 {
		t.Fatalf("post-crash inbox holds %d undrained messages", n)
	}
}

// TestCloseAfterCrashReturns: Close on an already-crashed gateway must
// return immediately. Regression: Close used a bare inbox enqueue in a
// select against done; post-crash both cases are ready, and picking the
// (buffered) enqueue blocked forever on a reply the dead loop never
// sends. The coin flip is per call, so hammer fresh gateways.
func TestCloseAfterCrashReturns(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		gw := newTestGateway(t, Config{})
		if err := gw.Crash(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- gw.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iter %d: post-crash Close = %v", iter, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: post-crash Close deadlocked", iter)
		}
	}
}
