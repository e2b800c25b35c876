package tier

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/query"
	"repro/internal/sim"
)

// fakeSource is an upstream stream whose buffer the test fills.
type fakeSource struct {
	id  SubID
	buf []Update
}

func (f *fakeSource) ID() SubID         { return f.id }
func (f *fakeSource) QueryID() query.ID { return query.ID(f.id) }
func (f *fakeSource) Take(spare []Update) ([]Update, bool) {
	batch := f.buf
	f.buf = spare[:0]
	return batch, true
}

// fakeCarrier records what a Stream asks of its upstream session.
type fakeCarrier struct {
	unsubscribed []SubID
	resumed      []string // "id@after"
}

func (c *fakeCarrier) UnsubscribeAsync(id SubID) error {
	c.unsubscribed = append(c.unsubscribed, id)
	return nil
}

func (c *fakeCarrier) Resume(id SubID, after uint64) (Source, error) {
	c.resumed = append(c.resumed, fmt.Sprintf("%d@%d", id, after))
	return &fakeSource{id: id}, nil
}

// staged starts a stream on on whose subscribe resolves to id.
func staged(on Carrier, id SubID) *Stream {
	s := new(Stream)
	s.Stage(on, func() (Source, error) { return &fakeSource{id: id}, nil })
	return s
}

// TestStreamHeldExactlyWhileNeeded runs the three teardown rules: a stream
// released before its subscribe resolves is unsubscribed at resolve, the
// last release of a live stream unsubscribes it, and a re-attach resumes the
// held streams its session carries (from the last sequence number drained),
// drops the held ones it lost and unsubscribes the carried ones nobody holds.
func TestStreamHeldExactlyWhileNeeded(t *testing.T) {
	on := &fakeCarrier{}
	early := staged(on, 1)
	early.Release()
	if src, err := early.Resolve(); src != nil || err != nil {
		t.Fatalf("an unheld stream resolved live: %v, %v", src, err)
	}

	shared := staged(on, 2)
	shared.Hold()
	src, err := shared.Resolve()
	if err != nil || src == nil || shared.ID() != 2 {
		t.Fatalf("a held stream resolved to %v, %v (id %d)", src, err, shared.ID())
	}
	src.(*fakeSource).buf = []Update{{Seq: 1}, {Seq: 2}}
	var seqs []uint64
	shared.Drain(func(u Update) { seqs = append(seqs, u.Seq) })
	if fmt.Sprint(seqs) != "[1 2]" {
		t.Fatalf("drained %v, want [1 2]", seqs)
	}
	if shared.Release() {
		t.Fatal("the first of two holders reported the last release")
	}
	if fmt.Sprint(on.unsubscribed) != "[1]" {
		t.Fatalf("unsubscribed %v, want [1]", on.unsubscribed)
	}

	lost := staged(on, 3)
	if _, err := lost.Resolve(); err != nil {
		t.Fatal(err)
	}
	shared.Detach()
	lost.Detach()
	pending := staged(on, 5)
	again := &fakeCarrier{}
	carried := []ResumeInfo{{ID: 2}, {ID: 4}}
	if n := Reattach(again, carried, []*Stream{shared, lost, pending}); n != 1 {
		t.Fatalf("%d streams resumed, want 1", n)
	}
	if got := fmt.Sprint(again.resumed, again.unsubscribed, lost.ID()); got != "[2@2] [4] 0" {
		t.Fatalf("re-attach resumed, unsubscribed, lost id = %s, want [2@2] [4] 0", got)
	}
	if !shared.Release() || fmt.Sprint(again.unsubscribed) != "[4 2]" {
		t.Fatalf("the last release of a resumed stream unsubscribed %v, want [4 2]", again.unsubscribed)
	}
	pending.Release()
	if _, err := pending.Resolve(); err != nil || fmt.Sprint(again.unsubscribed) != "[4 2 5]" {
		t.Fatalf("a stream staged across the re-attach resolved unheld on %v", again.unsubscribed)
	}
}

// FuzzEpochPool: a partition's pieces reach one pending-epoch list for two
// interleaved instants, in a seeded arrival order, and every released
// epoch's Finish equals direct evaluation over the whole region (the
// partition algebra of FuzzPartition, through the fan-in's accumulators).
// A second round runs the same on the recycled accumulators.
func FuzzEpochPool(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(8), 3.0, 20.0)
	f.Add(int64(2), uint8(60), uint8(15), 1.0, 60.0)
	f.Add(int64(3), uint8(15), uint8(4), 2.0, 14.0)
	f.Add(int64(4), uint8(1), uint8(1), 1.0, 1.0)
	f.Add(int64(5), uint8(200), uint8(2), -1e300, 1e300) // slots past one mask word
	f.Fuzz(func(t *testing.T, seed int64, sensors, width uint8, lo, hi float64) {
		if sensors == 0 || width == 0 || math.IsNaN(lo) || math.IsNaN(hi) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		c := genPartitionCase(rng, int(sensors), int(width), lo, hi, true)
		n := c.q.Normalize()
		region, err := Region(n, c.sensors)
		if err != nil {
			t.Skip() // rejected before any piece streams
		}
		pieces := Split(region, c.width)
		basis := Basis(c.q.Aggs)
		var pool EpochPool
		var list []*Epoch
		for round := 0; round < 2; round++ {
			var ats [2]sim.Time
			var readings [2][]map[field.Attr]float64
			type arrival struct{ k, slot int }
			var arrivals []arrival
			for k := range ats {
				ats[k] = sim.Time(time.Duration(2*round+k+1) * 8192 * time.Millisecond)
				readings[k] = genReadings(rng, c.sensors)
				for slot := range pieces {
					arrivals = append(arrivals, arrival{k, slot})
				}
			}
			rng.Shuffle(len(arrivals), func(i, j int) { arrivals[i], arrivals[j] = arrivals[j], arrivals[i] })
			for _, a := range arrivals {
				at := ats[a.k]
				if e := pool.At(&list, at); !e.Complete(len(pieces)) {
					e.Add(a.slot, &Update{Aggs: evalQuery(Piece(n, basis, pieces[a.slot], c.sensors), at, readings[a.k])})
				} else {
					t.Fatalf("epoch %v complete before all %d pieces arrived", at, len(pieces))
				}
			}
			if len(list) != 2 || !slices.IsSortedFunc(list, func(a, b *Epoch) int { return int(a.At - b.At) }) {
				t.Fatalf("round %d: pending list %v, want the two instants ascending", round, list)
			}
			for k, e := range list {
				if !e.Complete(len(pieces)) || e.Degraded || e.Coverage() != 1 {
					t.Fatalf("round %d, epoch %v: complete=%v degraded=%v coverage=%v", round, e.At, e.Complete(len(pieces)), e.Degraded, e.Coverage())
				}
				c.assertEval(t, fmt.Sprintf("round %d, %s over %v at %v", round, n, pieces, e.At), e.Finish(e.At, c.q.Aggs), ats[k], readings[k])
			}
			pool.Drop(&list, len(list))
		}
	})
}
