package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestAvgTransmissionTime(t *testing.T) {
	c := NewCollector(4)
	c.AddTxTime(0, time.Second)
	c.AddTxTime(1, 2*time.Second)
	// Nodes 2 and 3 idle.
	got := c.AvgTransmissionTime(10 * time.Second)
	want := (0.1 + 0.2 + 0 + 0) / 4
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("avg tx time = %f, want %f", got, want)
	}
	if c.AvgTransmissionTime(0) != 0 {
		t.Fatal("zero sim time must yield 0")
	}
}

func TestCounts(t *testing.T) {
	c := NewCollector(2)
	c.CountMessage(KindResult, 0, 20)
	c.CountMessage(KindResult, 1, 30)
	c.CountMessage(KindQuery, 1, 10)
	c.CountRetransmission()
	c.CountDrop()
	if c.Messages() != 3 || c.MessagesOf("result") != 2 || c.MessagesOf("query") != 1 {
		t.Fatalf("counts wrong: %s", c)
	}
	if c.Retransmissions() != 1 || c.Dropped() != 1 {
		t.Fatalf("retrans/drops wrong: %s", c)
	}
	if c.Bytes() != 60 {
		t.Fatalf("bytes = %d", c.Bytes())
	}
	kinds := c.Kinds()
	if len(kinds) != 2 || kinds[0] != "query" || kinds[1] != "result" {
		t.Fatalf("kinds = %v", kinds)
	}
	if s := c.String(); !strings.Contains(s, "result=2") {
		t.Fatalf("String() = %q", s)
	}
	if c.MessagesFrom("result", 1) != 1 || c.MessagesFrom("result", 0) != 1 {
		t.Fatal("per-node counts wrong")
	}
	if c.MessagesFrom("bogus", 0) != 0 || c.MessagesFrom("result", 99) != 0 {
		t.Fatal("missing entries must read 0")
	}
	if c.SendersOf("result") != 2 || c.SendersOf("query") != 1 || c.SendersOf("bogus") != 0 {
		t.Fatalf("SendersOf wrong: result=%d query=%d", c.SendersOf("result"), c.SendersOf("query"))
	}
}

func TestTxTimeOutOfRange(t *testing.T) {
	c := NewCollector(2)
	c.AddTxTime(99, time.Second) // discarded, no panic
	if c.TxTime(99) != 0 {
		t.Fatal("out-of-range node should read 0")
	}
	if c.TotalTxTime() != 0 {
		t.Fatal("nothing should have accrued")
	}
	if c.Clipped() != 1 {
		t.Fatalf("clipped = %d, want 1", c.Clipped())
	}
}

// Out-of-range metric updates must not vanish silently: every clipped
// accrual counts, negative IDs don't panic, and the counter surfaces in
// String().
func TestClippedAccounting(t *testing.T) {
	c := NewCollector(2)
	if c.Nodes() != 2 {
		t.Fatalf("Nodes() = %d", c.Nodes())
	}
	c.AddTxTime(5, time.Second)
	c.AddTxTime(-1, time.Second)
	c.CountSamples(2, 3)
	if c.Clipped() != 3 {
		t.Fatalf("clipped = %d, want 3", c.Clipped())
	}
	// In-range updates don't clip.
	c.AddTxTime(1, time.Second)
	c.AddTxTime(0, time.Second)
	c.CountSamples(1, 1)
	if c.Clipped() != 3 {
		t.Fatalf("clipped moved to %d on in-range updates", c.Clipped())
	}
	if s := c.String(); !strings.Contains(s, "clipped=3") {
		t.Fatalf("String() must surface clipping: %q", s)
	}
	// A clean collector's String stays clean.
	if s := NewCollector(2).String(); strings.Contains(s, "clipped") {
		t.Fatalf("clean collector shows clipped: %q", s)
	}
}

func TestSavings(t *testing.T) {
	if got := Savings(10, 2.5); got != 0.75 {
		t.Fatalf("savings = %f, want 0.75", got)
	}
	if got := Savings(0, 5); got != 0 {
		t.Fatal("zero baseline must not divide")
	}
	if got := Savings(10, 12); got != -0.2 {
		t.Fatalf("negative savings = %f", got)
	}
}
