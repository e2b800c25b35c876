package gateway

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/topology"
)

// The overload scenario is a deterministic admission storm run entirely in
// virtual time: a herd of subscribers slams a gateway whose staging mailbox
// is bounded, shed subscribers retry at the next round boundary (the
// in-process analogue of honoring the wire retry-after hint), and every
// client's subscribe-to-first-result latency is counted in Advance rounds.
// No wall clock enters, so the two latencies are exactly reproducible on any
// machine.
const (
	overloadHerdClients   = 24
	overloadHerdMaxStaged = 8
	overloadHerdQuantum   = 8192 * time.Millisecond
	overloadHerdRounds    = 64
)

// overloadBenchResult carries the scenario's two virtual latencies: the
// first-result latency of a single unloaded subscriber, and the p99
// first-result latency across the herd squeezed through the bounded
// mailbox. Their ratio is what the test bounds — shedding is allowed to
// delay the herd's tail, never to starve it.
type overloadBenchResult struct {
	Unloaded time.Duration
	HerdP99  time.Duration
}

func runOverloadBench() (*overloadBenchResult, error) {
	base, err := overloadFirstResults(1, 0)
	if err != nil {
		return nil, fmt.Errorf("overload bench (unloaded): %w", err)
	}
	herd, err := overloadFirstResults(overloadHerdClients, overloadHerdMaxStaged)
	if err != nil {
		return nil, fmt.Errorf("overload bench (herd): %w", err)
	}
	sort.Slice(herd, func(i, j int) bool { return herd[i] < herd[j] })
	return &overloadBenchResult{
		Unloaded: base[0],
		HerdP99:  herd[(len(herd)*99+99)/100-1],
	}, nil
}

// overloadFirstResults runs clients concurrent subscribers against a
// gateway whose staging mailbox holds at most maxStaged commands
// (0 = unbounded) and returns each client's subscribe-to-first-result
// latency in virtual time. A shed client re-subscribes after the next
// Advance, so a client admitted in retry wave k pays k extra rounds —
// exactly the delay admission control is supposed to convert overload
// into.
func overloadFirstResults(clients, maxStaged int) ([]time.Duration, error) {
	topo, err := topology.PaperGrid(2)
	if err != nil {
		return nil, err
	}
	gw, err := New(Config{
		Sim: network.Config{
			Topo:   topo,
			Scheme: network.TTMQO,
			Seed:   1,
		},
		MaxStaged:    maxStaged,
		SessionQuota: clients + 1,
		Rate:         1 << 20,
		Burst:        1 << 20,
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()
	sess, err := gw.Register("overload-bench")
	if err != nil {
		return nil, err
	}

	q := query.MustParse("SELECT light EPOCH DURATION 8192ms")
	type benchClient struct {
		tk      *Ticket
		sub     *Subscription
		latency time.Duration
		done    bool
	}
	cls := make([]benchClient, clients)
	subscribe := func(c *benchClient) error {
		tk, err := sess.SubscribeAsync(SubscribeRequest{Query: q})
		if err != nil {
			if errors.Is(err, resilience.ErrOverloaded) {
				return nil // shed at enqueue; retry next round
			}
			return err
		}
		c.tk = tk
		return nil
	}
	for i := range cls {
		if err := subscribe(&cls[i]); err != nil {
			return nil, err
		}
	}

	for round := 1; round <= overloadHerdRounds; round++ {
		if _, err := gw.Advance(overloadHerdQuantum); err != nil {
			return nil, err
		}
		now := time.Duration(round) * overloadHerdQuantum
		remaining := 0
		for i := range cls {
			c := &cls[i]
			if c.done {
				continue
			}
			// The Advance command trails every subscribe on the gateway's
			// mailbox, so by now each outstanding ticket has either
			// committed or been shed — Wait cannot block across rounds.
			if c.tk != nil && c.sub == nil {
				sub, err := c.tk.Wait()
				c.tk = nil
				switch {
				case err == nil:
					c.sub = sub
				case !errors.Is(err, resilience.ErrOverloaded):
					return nil, err
				}
			}
			if c.sub != nil {
				if batch, _ := takeSub(c.sub); len(batch) > 0 {
					c.done = true
					c.latency = now
				}
			}
			if !c.done {
				remaining++
				if c.tk == nil && c.sub == nil {
					if err := subscribe(c); err != nil {
						return nil, err
					}
				}
			}
		}
		if remaining == 0 {
			break
		}
	}

	out := make([]time.Duration, 0, clients)
	for i := range cls {
		if !cls[i].done {
			return nil, fmt.Errorf("client %d starved after %d rounds (maxStaged %d)",
				i, overloadHerdRounds, maxStaged)
		}
		out = append(out, cls[i].latency)
	}
	return out, nil
}

// TestOverloadBenchDeterministic runs the virtual-time admission storm
// twice and checks its properties: the latencies are bit-identical across
// runs (no wall clock leaks in), the herd's tail
// pays a real shedding delay (ratio > 1), and the delay stays within the
// acceptance bar (ratio <= 4) — retrying shed subscribers are admitted in
// waves, not starved.
func TestOverloadBenchDeterministic(t *testing.T) {
	a, err := runOverloadBench()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOverloadBench()
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("overload bench is nondeterministic: %+v vs %+v", a, b)
	}
	if a.Unloaded <= 0 {
		t.Fatalf("unloaded first-result latency = %v, want > 0", a.Unloaded)
	}
	ratio := float64(a.HerdP99) / float64(a.Unloaded)
	if ratio <= 1 {
		t.Fatalf("herd p99 %v <= unloaded %v; the storm never shed", a.HerdP99, a.Unloaded)
	}
	if ratio > 4 {
		t.Fatalf("herd p99 %v is %.2fx unloaded %v, acceptance bar is 4x",
			a.HerdP99, ratio, a.Unloaded)
	}
}
