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
// goroutines while the gateway closes. Every command accepted (nil error)
// must be answered on its ticket, every later one refused with ErrClosed.
// (That the answer arrives on the ticket's own channel rather than through
// Wait's closed-tier fallback is pinned where the channel lives:
// tier.TestKernelLifecycle, "close with live subs, use after close".)
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
		answered := make(chan error, len(tickets))
		for _, tk := range tickets {
			go func() {
				_, err := tk.Wait()
				answered <- err
			}()
		}
		for i := range tickets {
			select {
			case err := <-answered:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("iter %d: ticket staged before Close resolved with %v, want ErrClosed", iter, err)
				}
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
	}
}

// TestSendAfterCrashSealed: the crash path must seal the mailbox exactly
// like a clean shutdown — post-crash commands and control requests fail
// with ErrClosed.
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
}

// TestCloseAfterCrashReturns: Close on an already-crashed gateway must
// return immediately, with no error.
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
