package share

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/gateway"
)

// TestAckPrecedesReplayedFrames pins the wire order where it used to be a
// scheduling race: a late subscriber of a warm query has its cached window
// in the stream at the very commit that admits it, so its first frames are
// ready before the server has written the ack. The ack must still come
// first — a client that waits for it, as SubscribeRetry does, drops the
// frames before it and would otherwise silently lose seq 1.
func TestAckPrecedesReplayedFrames(t *testing.T) {
	c, _ := newTestCoord(t, gateway.Config{}, Config{Window: 3})
	srv, err := gateway.NewServer(c, gateway.ServerConfig{
		Addr: "127.0.0.1:0", TickEvery: time.Millisecond, Quantum: testQuantum,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const text = "SELECT MIN(light) EPOCH DURATION 8192ms"
	dial := func(name string) *gateway.Client {
		t.Helper()
		cl, err := gateway.Dial(srv.Addr().String(), gateway.ClientConfig{Binary: true, Timeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		if _, err := cl.Hello(name, ""); err != nil {
			t.Fatal(err)
		}
		return cl
	}

	// Warm the cache: the first subscriber reads a full window live.
	early := dial("early")
	if _, err := early.SubscribeRetry(text, "e", gateway.RetryConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := early.RecvType(gateway.TypeAgg); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 24; i++ {
		late := dial(fmt.Sprintf("late-%d", i))
		ack, err := late.SubscribeRetry(text, "l", gateway.RetryConfig{})
		if err != nil {
			t.Fatal(err)
		}
		first, err := late.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if first.Type != gateway.TypeAgg || first.Sub != ack.Sub || first.Seq != 1 {
			t.Fatalf("late subscriber %d: first response after the ack is %s sub=%d seq=%d, want agg sub=%d seq=1 (a frame beat its ack)",
				i, first.Type, first.Sub, first.Seq, ack.Sub)
		}
		late.Close()
	}
	if st := c.ShareStats(); st.CacheHits == 0 {
		t.Fatalf("no late subscriber was served from the cache: %+v", st)
	}
}
