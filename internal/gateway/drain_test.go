package gateway

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/tier"
)

// holdingBackend is the smallest tier a Server can front: one group per
// query text on a bare kernel. Its Advance(d > 0) pushes one epoch to every
// group and then, still holding the tier lock, waits for the test to report
// the epoch's frame read off the socket.
type holdingBackend struct {
	*tier.Kernel
	mu     sync.Mutex
	groups map[string]*tier.Group
	at     sim.Time
	seen   chan struct{}
}

func newHoldingBackend() *holdingBackend {
	b := &holdingBackend{groups: make(map[string]*tier.Group), seen: make(chan struct{}, 1)}
	b.Kernel = tier.New(tier.Config{
		Name: "holding", Mu: &b.mu, Buffer: 8, MaxSessions: 4, SessionQuota: 4,
		Now: func() sim.Time { return b.at },
		ApplySubscribe: func(a tier.Admission) (*tier.Group, error) {
			key := a.Query.String()
			if b.groups[key] == nil {
				b.groups[key] = &tier.Group{Key: key}
			}
			return b.groups[key], nil
		},
		ReleaseGroup: func(g *tier.Group) { delete(b.groups, g.Key) },
	})
	return b
}

// heldFor bounds how long Advance holds the tier lock waiting for a frame.
const heldFor = 5 * time.Second

// Advance commits, pushes one epoch per group when d > 0, and returns
// whether the pushed frames reached the client while it still held the lock.
func (b *holdingBackend) Advance(d time.Duration) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, acks := b.CommitLocked()
	b.AckLocked(acks)
	if d == 0 || len(b.groups) == 0 {
		return n, nil
	}
	b.at += sim.Time(d)
	for _, g := range b.groups {
		g.Deliver(&Update{At: b.at, Aggs: []query.AggResult{{Value: 1}}})
	}
	select {
	case <-b.seen:
		return n, nil
	case <-time.After(heldFor):
		return n, errHeld
	}
}

var errHeld = errors.New("frame still unread when the quantum ended")

func (b *holdingBackend) Now() sim.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.at
}

func (b *holdingBackend) Alive() bool { return true }

func (b *holdingBackend) ServeStats() (Stats, sim.Time, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var st Stats
	b.StatsLocked().Overlay(&st)
	return st, b.at, nil
}

func (b *holdingBackend) BrownoutLevel() resilience.Level { return resilience.LevelNormal }

// TestWriterDrainsDuringAdvance: the connection writer takes a stream's
// frames while the tier that pushed them is still inside its Advance — the
// frames of a quantum reach the client before the quantum ends. A writer
// that needed the tier lock to read its streams would wait for the Advance,
// and the Advance here waits for the client.
func TestWriterDrainsDuringAdvance(t *testing.T) {
	b := newHoldingBackend()
	_, c := handleCounted(t, b, ServerConfig{ReadTimeout: -1})
	if err := c.Send(Request{Op: OpSubscribe, Query: "SELECT MAX(light) EPOCH DURATION 2048ms"}); err != nil {
		t.Fatal(err)
	}
	commits := make(chan struct{})
	go func() {
		defer close(commits)
		for i := 0; i < 2000; i++ {
			if n, _ := b.Advance(0); n > 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if _, err := c.RecvType(TypeSubscribed); err != nil {
		t.Fatal(err)
	}
	<-commits
	for round := 0; round < 3; round++ {
		advanced := make(chan error, 1)
		go func() {
			_, err := b.Advance(2048 * time.Millisecond)
			advanced <- err
		}()
		r, err := c.RecvType(TypeAgg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != uint64(round+1) {
			t.Fatalf("round %d: got seq %d", round, r.Seq)
		}
		b.seen <- struct{}{}
		if err := <-advanced; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestResumedStreamHasOneReader: a named client drops its connection while
// the pacer keeps pushing, re-attaches on a new one and resumes from the
// last sequence number it read — ten times over. The handler stops a
// connection's writer before it detaches the session, and a stream can be
// resumed only once the session is detached, so no writer of an earlier
// connection ever takes from the resumed stream: on each new connection the
// stream runs without a hole after its first frame (a frame the old writer
// wrote but the client never read surfaces as a counted gap at the resume).
func TestResumedStreamHasOneReader(t *testing.T) {
	gw := newTestGateway(t, Config{})
	srv, err := NewServer(gw, ServerConfig{Addr: "127.0.0.1:0", TickEvery: time.Millisecond, Quantum: 2048 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *Client {
		t.Helper()
		c, err := Dial(srv.Addr().String(), ClientConfig{Binary: true, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := dial()
	hello, err := c.Hello("solo", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Request{Op: OpSubscribe, Query: "SELECT MAX(light) EPOCH DURATION 2048ms"}); err != nil {
		t.Fatal(err)
	}
	ack, err := c.RecvType(TypeSubscribed)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	// read takes n result frames, the first past last, the rest contiguous.
	read := func(c *Client, n int) {
		t.Helper()
		for i := 0; i < n; {
			r, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if r.Type != TypeAgg {
				continue
			}
			if r.Seq <= last || (i > 0 && r.Seq != last+1) {
				t.Fatalf("frame %d on this connection: seq %d after %d", i, r.Seq, last)
			}
			last = r.Seq
			i++
		}
	}
	read(c, 3)
	for cycle := 0; cycle < 10; cycle++ {
		c.Close()
		c = dial()
		// The re-attach succeeds once the old handler has stopped its
		// writer and detached the session.
		for deadline := time.Now().Add(5 * time.Second); ; {
			if _, err := c.Hello("solo", hello.Token); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("cycle %d: re-attach: %v", cycle, err)
			}
			time.Sleep(time.Millisecond)
		}
		if err := c.Send(Request{Op: OpResume, Sub: ack.Sub, After: last}); err != nil {
			t.Fatal(err)
		}
		read(c, 3)
	}
	c.Close()
}
