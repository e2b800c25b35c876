package share

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// fakeUpstream is an Upstream with no simulation behind it: every Advance of
// d > 0 pushes perRound epochs into every live fragment stream, each carrying
// the fragment's own aggregate list at value 1. It allocates nothing per
// round, so what a round allocates is the coordinator's.
type fakeUpstream struct {
	perRound int
	now      sim.Time
	subs     []*fakeSub
}

func (f *fakeUpstream) Advance(d time.Duration) (int, error) {
	if d <= 0 {
		return 0, nil
	}
	for i := 0; i < f.perRound; i++ {
		f.now += sim.Time(d) / sim.Time(f.perRound)
		for _, s := range f.subs {
			s.seq++
			s.buf = append(s.buf, gateway.Update{Seq: s.seq, At: f.now, Aggs: s.aggs})
		}
	}
	return 0, nil
}

func (f *fakeUpstream) Now() sim.Time { return f.now }
func (f *fakeUpstream) Alive() bool   { return true }
func (f *fakeUpstream) BrownoutLevel() resilience.Level {
	return resilience.LevelNormal
}
func (f *fakeUpstream) ServeStats() (gateway.Stats, sim.Time, error) {
	return gateway.Stats{}, f.now, nil
}
func (f *fakeUpstream) Register(name string) (UpstreamSession, error) {
	return fakeSession{f, name}, nil
}
func (f *fakeUpstream) Attach(string, string) (UpstreamSession, []gateway.ResumeInfo, error) {
	return nil, nil, errors.New("fake upstream: no attach")
}

type fakeSession struct {
	f    *fakeUpstream
	name string
}

func (s fakeSession) Name() string  { return s.name }
func (s fakeSession) Token() string { return "fake" }
func (s fakeSession) SubscribeAsync(q query.Query) (UpstreamTicket, error) {
	sub := &fakeSub{id: gateway.SubID(len(s.f.subs) + 1)}
	for _, a := range q.Aggs {
		sub.aggs = append(sub.aggs, query.AggResult{Agg: a, Value: 1})
	}
	s.f.subs = append(s.f.subs, sub)
	return sub, nil
}
func (s fakeSession) UnsubscribeAsync(gateway.SubID) error { return nil }
func (s fakeSession) Resume(gateway.SubID, uint64) (UpstreamSub, error) {
	return nil, errors.New("fake upstream: no resume")
}
func (s fakeSession) Read(read func()) { read() }

// fakeSub is its own ticket: the fake admits at once.
type fakeSub struct {
	id   gateway.SubID
	seq  uint64
	aggs []query.AggResult
	buf  []gateway.Update
}

func (s *fakeSub) Wait() (UpstreamSub, error) { return s, nil }
func (s *fakeSub) ID() gateway.SubID          { return s.id }
func (s *fakeSub) QueryID() query.ID          { return query.ID(s.id) }
func (s *fakeSub) Take(spare []gateway.Update) ([]gateway.Update, bool) {
	batch := s.buf
	s.buf = spare[:0]
	return batch, true
}

// releasedAllocsMax is the allocation budget of one released epoch: the
// []AggResult Finish hands to the subscribers and the cache ring. Measured 1;
// accumulators, fragment bitmasks and pending lists are recycled.
const releasedAllocsMax = 1

// TestRoundAllocs pins what a coordinator round allocates once its tables
// have reached their size: per released epoch, the result slice and nothing
// else; for an idle Advance(0) — the commit-only round a server's pacer and
// the benchmark's request pump run all the time — nothing at all.
func TestRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const perRound = 3
	up := &fakeUpstream{perRound: perRound}
	c, err := New(Config{Upstream: up, Sensors: 60, SessionQuota: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping region aggregates, one to four cells wide: twelve trees
	// over eight fragments, AVG rebuilt from the SUM+COUNT basis.
	var tks []*Ticket
	for w := 1; w <= 4; w++ {
		for _, start := range []int{0, 2, 4} {
			text := fmt.Sprintf("SELECT SUM(light), COUNT(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION 2048ms",
				start*DefaultCell+1, min((start+w)*DefaultCell, 60))
			tks = append(tks, stageShare(t, sess, text))
		}
	}
	advance(t, c, 0)
	var subs []*Sub
	for _, tk := range tks {
		sub, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	batches := make([][]gateway.Update, len(subs)) // each sub's last batch, recycled by its next take
	round := func() {
		advance(t, c, testQuantum)
		sess.Read(func() {
			for i, sub := range subs {
				batches[i], _ = sub.Take(batches[i])
			}
		})
	}
	for i := 0; i < 8; i++ { // rings, free lists and pending lists reach their size
		round()
	}
	before := c.ShareStats()
	perRoundAllocs := testing.AllocsPerRun(50, round)
	after := c.ShareStats()
	released := float64(after.MergedEpochs-before.MergedEpochs) / 51 // AllocsPerRun warms up with one extra run
	if want := float64(len(subs) * perRound); released != want {
		t.Fatalf("%v epochs released per round, want %v", released, want)
	}
	if after.PartialDropped != 0 || after.LateDropped != 0 {
		t.Fatalf("dropped epochs: %+v", after)
	}
	if per := perRoundAllocs / released; per > releasedAllocsMax {
		t.Errorf("%.2f allocs per released epoch (%v per round of %v), want <= %d", per, perRoundAllocs, released, releasedAllocsMax)
	}
	if n := testing.AllocsPerRun(50, func() { advance(t, c, 0) }); n != 0 {
		t.Errorf("idle Advance(0): %v allocs, want 0", n)
	}
}

// BenchmarkFullStackRound is the end-to-end benchmark's full_stack round
// without its sockets: a coordinator over a 4 × side-4 router carrying 48
// cell-aligned region aggregates (SUM, COUNT, AVG; 2048/4096/8192 ms epochs)
// for two sessions, every stream drained after every 2048 ms round.
func BenchmarkFullStackRound(b *testing.B) {
	const shards, side, sensors = 4, 4, 60
	rt, err := federation.New(federation.Config{Shards: shards, Side: side, Seed: 1, MaxSessions: 32})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	c, err := New(Config{Upstream: OverRouter(rt), Sensors: sensors, SessionQuota: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var tks []*Ticket
	for _, name := range []string{"a", "b"} {
		sess, err := c.Register(name)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 48; i++ {
			w, start := 1+i%4, (i*3)%8
			start = min(start, 8-w)
			text := fmt.Sprintf("SELECT SUM(light), COUNT(light), AVG(light) WHERE nodeid >= %d AND nodeid <= %d EPOCH DURATION %dms",
				start*DefaultCell+1, min((start+w)*DefaultCell, sensors), 2048<<(i%3))
			tk, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)})
			if err != nil {
				b.Fatal(err)
			}
			tks = append(tks, tk)
		}
	}
	for pumped := 1; pumped > 0; {
		if pumped, err = c.Advance(0); err != nil {
			b.Fatal(err)
		}
	}
	var subs []*Sub
	for _, tk := range tks {
		sub, err := tk.Wait()
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, sub)
	}
	updates := 0
	batches := make([][]gateway.Update, len(subs)) // each sub's last batch, recycled by its next take
	round := func() {
		if _, err := c.Advance(testQuantum); err != nil {
			b.Fatal(err)
		}
		for i, sub := range subs {
			sub.Session().Read(func() { batches[i], _ = sub.Take(batches[i]) })
			updates += len(batches[i])
		}
	}
	for i := 0; i < 16; i++ { // floods settle, caches and free lists fill
		round()
	}
	updates = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if updates == 0 {
		b.Fatal("no update delivered")
	}
	b.ReportMetric(float64(updates)/float64(b.N), "updates/round")
}
