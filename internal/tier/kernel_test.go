package tier

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/sim"
)

// fakeTier is the smallest policy a Kernel can serve: one group per
// distinct query text, nothing upstream.
type fakeTier struct {
	*Kernel
	mu       sync.Mutex
	groups   map[string]*Group
	released []string // group keys, in release order
	closed   []string // session names, in close order
	clock    sim.Time // the tier's virtual clock
}

func newFakeTier(cfg Config) *fakeTier {
	f := &fakeTier{groups: make(map[string]*Group)}
	cfg.Name, cfg.Mu = "fake", &f.mu
	cfg.Now = func() sim.Time { return f.clock }
	cfg.Token = func(name string) (string, error) { return "tok-" + name, nil }
	cfg.ApplySubscribe = func(a Admission) (*Group, error) {
		key := a.Query.String()
		if strings.Contains(key, "nodeid") {
			return nil, fmt.Errorf("fake: no region queries")
		}
		if f.groups[key] == nil {
			f.groups[key] = &Group{Key: key}
		}
		return f.groups[key], nil
	}
	cfg.ReleaseGroup = func(g *Group) {
		delete(f.groups, g.Key)
		f.released = append(f.released, g.Key)
	}
	cfg.CloseSession = func(s *Session) { f.closed = append(f.closed, s.Name()) }
	f.Kernel = New(cfg)
	return f
}

// advance commits and acks, as a tier's Advance does around its own work.
func (f *fakeTier) advance() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, acks := f.CommitLocked()
	f.AckLocked(acks)
	return n
}

// deliver fans n epochs out to the group keyed by text.
func (f *fakeTier) deliver(text string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := f.groups[query.MustParse(text).String()]
	for i := 0; i < n; i++ {
		g.Deliver(&Update{At: sim.Time(i)})
	}
}

func (f *fakeTier) stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.StatsLocked()
}

const (
	qLight = "SELECT MAX(light) EPOCH DURATION 8192ms"
	qTemp  = "SELECT MIN(temp) EPOCH DURATION 8192ms"
)

func mustRegister(t *testing.T, f *fakeTier, name string) *Session {
	t.Helper()
	s, err := f.Register(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stage(t *testing.T, s *Session, text string) *Ticket {
	t.Helper()
	tk, err := s.SubscribeAsync(SubscribeRequest{Query: query.MustParse(text)})
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// mustSub stages, commits and returns one subscription.
func mustSub(t *testing.T, f *fakeTier, s *Session, text string) *Sub {
	t.Helper()
	tk := stage(t, s, text)
	f.advance()
	sub, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func seqs(ch <-chan Update) []uint64 {
	var out []uint64
	for {
		select {
		case u, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, u.Seq)
		default:
			return out
		}
	}
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("err = %v, want one containing %q", err, substr)
	}
}

// TestKernelLifecycle drives the session kernel once, for every tier that
// embeds it.
func TestKernelLifecycle(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, f *fakeTier)
	}{
		{"duplicate name", Config{}, func(t *testing.T, f *fakeTier) {
			mustRegister(t, f, "alice")
			_, err := f.Register("alice")
			wantErr(t, err, `fake: session "alice" already registered`)
		}},
		{"session limit", Config{MaxSessions: 2}, func(t *testing.T, f *fakeTier) {
			mustRegister(t, f, "a")
			mustRegister(t, f, "b")
			_, err := f.Register("c")
			wantErr(t, err, "fake: session limit 2 reached")
			if st := f.stats(); st.Sessions != 2 || st.ActiveSessions != 2 {
				t.Fatalf("stats %+v, want 2 sessions", st)
			}
		}},
		{"commit order across sessions", Config{}, func(t *testing.T, f *fakeTier) {
			// Staged b, a, b: commits a, b, b — sub ids follow (name, seq).
			a, b := mustRegister(t, f, "a"), mustRegister(t, f, "b")
			tb1, ta, tb2 := stage(t, b, qLight), stage(t, a, qLight), stage(t, b, qTemp)
			if n := f.advance(); n != 3 {
				t.Fatalf("applied %d commands, want 3", n)
			}
			for i, tk := range []*Ticket{ta, tb1, tb2} {
				sub, err := tk.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if sub.ID() != SubID(i+1) {
					t.Errorf("ticket %d got sub id %d, want %d", i, sub.ID(), i+1)
				}
				if shared := i == 1; sub.Shared() != shared {
					t.Errorf("sub %d shared = %v, want %v", sub.ID(), sub.Shared(), shared)
				}
			}
			if st := f.stats(); st.Subscribes != 3 || st.DedupHits != 1 || st.ActiveSubscriptions != 3 {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"deadline shed", Config{MailboxDeadline: time.Millisecond}, func(t *testing.T, f *fakeTier) {
			s := mustRegister(t, f, "a")
			late := stage(t, s, qLight)
			roomy, err := s.SubscribeAsync(SubscribeRequest{Query: query.MustParse(qTemp), Budget: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
			f.advance()
			if _, err := late.Wait(); !errors.Is(err, resilience.ErrOverloaded) {
				t.Fatalf("past-budget subscribe = %v, want ErrOverloaded", err)
			}
			if _, err := roomy.Wait(); err != nil {
				t.Fatalf("a request budget must override the default: %v", err)
			}
			if st := f.stats(); st.ShedDeadline != 1 || st.Subscribes != 1 {
				t.Fatalf("stats %+v, want 1 shed, 1 subscribe", st)
			}
		}},
		{"quota", Config{SessionQuota: 1}, func(t *testing.T, f *fakeTier) {
			s := mustRegister(t, f, "a")
			mustSub(t, f, s, qLight)
			tk := stage(t, s, qTemp)
			f.advance()
			_, err := tk.Wait()
			wantErr(t, err, `fake: session "a" is at its quota of 1 subscriptions`)
			if st := f.stats(); st.QuotaRejected != 1 || st.Subscribes != 1 {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"rejected by the tier", Config{}, func(t *testing.T, f *fakeTier) {
			s := mustRegister(t, f, "a")
			tk := stage(t, s, "SELECT light WHERE nodeid >= 1 EPOCH DURATION 8192ms")
			f.advance()
			_, err := tk.Wait()
			wantErr(t, err, "fake: no region queries")
			// Subscribes counts admissions, as a gateway's does.
			if st := f.stats(); st.Subscribes != 0 || st.ActiveSubscriptions != 0 {
				t.Fatalf("a rejected admission left state behind: %+v", st)
			}
		}},
		{"detach, ring bound, resume with and without a gap", Config{Buffer: 4}, func(t *testing.T, f *fakeTier) {
			s := mustRegister(t, f, "a")
			sub := mustSub(t, f, s, qLight)
			f.deliver(qLight, 2) // seq 1,2 buffered in the channel
			if err := s.Detach(); err != nil {
				t.Fatal(err)
			}
			if r := sub.Reason(); r != ReasonDetached {
				t.Fatalf("reason after detach = %v", r)
			}
			wantErr(t, s.Detach(), "already detached")
			f.deliver(qLight, 4) // seq 3..6 park; the ring keeps the last 4
			// A detached session is still an open one.
			if st := f.stats(); st.RingDropped != 2 || st.Updates != 6 || st.Detaches != 1 || st.ActiveSessions != 1 {
				t.Fatalf("stats %+v, want 2 ring drops of 6 updates, 1 open session", st)
			}

			_, _, err := f.Attach("a", "wrong")
			wantErr(t, err, `fake: bad token for session "a"`)
			_, _, err = f.Attach("nobody", "tok-nobody")
			wantErr(t, err, `fake: no session "nobody"`)
			s2, infos, err := f.Attach("a", s.Token())
			if err != nil {
				t.Fatal(err)
			}
			if s2 != s || len(infos) != 1 || infos[0].ID != sub.ID() || infos[0].LastSeq != 6 || infos[0].Key != sub.Key() {
				t.Fatalf("attach = %p %+v", s2, infos)
			}
			_, _, err = f.Attach("a", s.Token())
			wantErr(t, err, "already attached")

			// The client saw seq 1; 2 fell off the ring: a gap, restart at 3.
			rs, err := s.Resume(sub.ID(), 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(seqs(rs.Updates())); got != "[3 4 5 6]" {
				t.Fatalf("resumed tail %s, want [3 4 5 6]", got)
			}
			_, err = s.Resume(sub.ID(), 1)
			wantErr(t, err, "already attached")
			_, err = s.Resume(99, 0)
			wantErr(t, err, "has no stream 99")

			// A second cycle that loses nothing: no gap.
			if err := s.Detach(); err != nil {
				t.Fatal(err)
			}
			f.deliver(qLight, 2) // seq 7,8
			if _, _, err := f.Attach("a", s.Token()); err != nil {
				t.Fatal(err)
			}
			// A resume point the stream never reached is refused, and the
			// parked tail survives the refusal.
			_, err = s.Resume(sub.ID(), 9)
			wantErr(t, err, "fake: resume after seq 9 but only 8 delivered")
			rs, err = s.Resume(sub.ID(), 6)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(seqs(rs.Updates())); got != "[7 8]" {
				t.Fatalf("resumed tail %s, want [7 8]", got)
			}
			f.deliver(qLight, 1)
			if got := fmt.Sprint(seqs(rs.Updates())); got != "[9]" {
				t.Fatalf("live after resume %s, want [9]", got)
			}
			st := f.stats()
			if st.Detaches != 2 || st.Attaches != 2 || st.Resumes != 2 || st.ResumeGaps != 1 {
				t.Fatalf("stats %+v, want 2 detaches, 2 attaches, 2 resumes, 1 gap", st)
			}
		}},
		{"ready signal", Config{Buffer: 2}, func(t *testing.T, f *fakeTier) {
			s := mustRegister(t, f, "s")
			raised := func() bool {
				select {
				case <-s.Ready():
					return true
				default:
					return false
				}
			}
			a, b := mustSub(t, f, s, qLight), mustSub(t, f, s, qTemp)
			if raised() {
				t.Fatal("ready raised with nothing pushed")
			}
			// Pushes to two streams coalesce into one pending wake-up.
			f.deliver(qLight, 2)
			f.deliver(qTemp, 1)
			if !raised() || raised() {
				t.Fatal("want exactly one pending wake-up after a round of pushes")
			}
			if got := fmt.Sprint(seqs(a.Updates()), seqs(b.Updates())); got != "[1 2] [1]" {
				t.Fatalf("streams hold %s, want [1 2] [1]", got)
			}
			// A close raises it too: by unsubscribe, and by eviction.
			tk, err := s.UnsubscribeAsync(b.ID())
			if err != nil {
				t.Fatal(err)
			}
			f.advance()
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			if !raised() || b.Reason() != ReasonUnsubscribed {
				t.Fatalf("unsubscribe: raised/reason %v", b.Reason())
			}
			f.deliver(qLight, 2)
			raised()
			f.deliver(qLight, 1) // overflows the 2-slot buffer
			if !raised() || a.Reason() != ReasonEvicted {
				t.Fatalf("eviction: reason %v", a.Reason())
			}
		}},
		{"resume raises ready for the replayed tail", Config{Buffer: 4}, func(t *testing.T, f *fakeTier) {
			s := mustRegister(t, f, "s")
			sub := mustSub(t, f, s, qLight)
			if err := s.Detach(); err != nil {
				t.Fatal(err)
			}
			f.deliver(qLight, 2) // parks seq 1, 2
			if _, _, err := f.Attach("s", s.Token()); err != nil {
				t.Fatal(err)
			}
			select {
			case <-s.Ready(): // the detach's wake-up: the streams closed
			default:
				t.Fatal("detach did not raise ready")
			}
			rs, err := s.Resume(sub.ID(), 0)
			if err != nil {
				t.Fatal(err)
			}
			// Nothing is pushed after the resume: the replay alone must wake a
			// consumer that waits on Ready before it drains.
			select {
			case <-s.Ready():
			case <-time.After(time.Second):
				t.Fatal("ready not raised for a resumed stream holding [1 2]")
			}
			if got := fmt.Sprint(seqs(rs.Updates())); got != "[1 2]" {
				t.Fatalf("resumed tail %s, want [1 2]", got)
			}
		}},
		{"eviction on a full buffer", Config{Buffer: 2}, func(t *testing.T, f *fakeTier) {
			slow, fast := mustRegister(t, f, "slow"), mustRegister(t, f, "fast")
			ss, fs := mustSub(t, f, slow, qLight), mustSub(t, f, fast, qLight)
			for i := 0; i < 3; i++ {
				f.deliver(qLight, 1)
				seqs(fs.Updates()) // fast keeps reading, slow never does
			}
			if got := fmt.Sprint(seqs(ss.Updates())); got != "[1 2]" || ss.Reason() != ReasonEvicted {
				t.Fatalf("slow stream %s reason %v, want [1 2] evicted", got, ss.Reason())
			}
			if fs.Reason() != ReasonNone {
				t.Fatalf("fast reader closed: %v", fs.Reason())
			}
			// The delivery that did not fit is counted, not just the eviction.
			st := f.stats()
			if st.Evicted != 1 || st.Dropped != 1 || st.ActiveSubscriptions != 1 || st.Updates != 5 {
				t.Fatalf("stats %+v, want 1 evicted, 1 dropped, 1 live, 5 updates", st)
			}
			if len(f.released) != 0 {
				t.Fatalf("eviction released %v while a subscriber remains", f.released)
			}
		}},
		{"idle reap", Config{}, func(t *testing.T, f *fakeTier) {
			gone, held := mustRegister(t, f, "gone"), mustRegister(t, f, "held")
			sg, sh := mustSub(t, f, gone, qLight), mustSub(t, f, held, qTemp)
			reap := func(at, timeout time.Duration) {
				f.mu.Lock()
				defer f.mu.Unlock()
				f.clock = at
				f.ReapLocked(timeout)
			}
			f.clock = time.Minute
			if err := gone.Detach(); err != nil {
				t.Fatal(err)
			}
			reap(2*time.Minute-1, time.Minute) // not yet
			reap(time.Hour, 0)                 // no timeout: never
			if st := f.stats(); st.IdleReaped != 0 || st.ActiveSessions != 2 {
				t.Fatalf("reaped early: %+v", st)
			}
			reap(2*time.Minute, time.Minute)
			if st := f.stats(); st.IdleReaped != 1 || st.ActiveSessions != 1 || st.ActiveSubscriptions != 1 {
				t.Fatalf("stats %+v, want 1 reaped, the attached session and its stream left", st)
			}
			if fmt.Sprint(f.released) != fmt.Sprint([]string{sg.Key()}) || fmt.Sprint(f.closed) != "[gone]" {
				t.Fatalf("released %v closed %v", f.released, f.closed)
			}
			if sg.Reason() != ReasonShutdown || sh.Reason() != ReasonNone {
				t.Fatalf("reasons %v / %v", sg.Reason(), sh.Reason())
			}
			_, _, err := f.Attach("gone", gone.Token())
			wantErr(t, err, `fake: no session "gone"`)
		}},
		{"restore a logged session and subscription", Config{}, func(t *testing.T, f *fakeTier) {
			f.mu.Lock()
			s, err := f.RestoreSessionLocked("a", "logged-token", 0)
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.RestoreSessionLocked("a", "other", 0)
			g := &Group{Key: qLight, QID: 7}
			f.groups[qLight] = g
			sub := f.RestoreSubLocked(s, 5, g, 0)
			f.mu.Unlock()
			wantErr(t, err, `fake: session "a" already registered`)
			// Detached from birth: deliveries park, and the client re-attaches
			// with the token it was given before the crash.
			f.mu.Lock()
			g.Deliver(&Update{})
			f.mu.Unlock()
			if sub.ID() != 5 || sub.QueryID() != 7 || sub.Reason() != ReasonDetached {
				t.Fatalf("restored sub id %d qid %d reason %v", sub.ID(), sub.QueryID(), sub.Reason())
			}
			s2, infos, err := f.Attach("a", "logged-token")
			if err != nil || s2 != s || len(infos) != 1 || infos[0].ID != 5 || infos[0].LastSeq != 1 {
				t.Fatalf("attach = %v %+v", err, infos)
			}
			rs, err := s.Resume(5, 0)
			if err != nil || fmt.Sprint(seqs(rs.Updates())) != "[1]" {
				t.Fatalf("resume = %v", err)
			}
			// Fresh ids continue past the restored one.
			if next := mustSub(t, f, s, qTemp); next.ID() != 6 {
				t.Fatalf("next id %d, want 6", next.ID())
			}
			if st := f.stats(); st.Sessions != 1 || st.Subscribes != 2 || st.ActiveSubscriptions != 2 {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"crash", Config{}, func(t *testing.T, f *fakeTier) {
			a := mustRegister(t, f, "a")
			sub, pending := mustSub(t, f, a, qLight), stage(t, a, qTemp)
			f.mu.Lock()
			f.CrashLocked()
			f.mu.Unlock()
			if _, err := pending.Wait(); !errors.Is(err, ErrClosed) {
				t.Fatalf("staged command at crash = %v, want ErrClosed", err)
			}
			if _, open := <-sub.Updates(); open || sub.Reason() != ReasonCrashed {
				t.Fatalf("stream after crash: open=%v reason %v", open, sub.Reason())
			}
			// Nothing drains: no hook ran, the table is as it was.
			if st := f.stats(); len(f.released)+len(f.closed) != 0 || st.ActiveSessions != 1 || st.ActiveSubscriptions != 1 {
				t.Fatalf("crash drained: released %v closed %v stats %+v", f.released, f.closed, st)
			}
			if _, err := f.Register("b"); !errors.Is(err, ErrClosed) {
				t.Fatalf("register after crash = %v", err)
			}
		}},
		{"unsubscribe releases the group with its last subscriber", Config{}, func(t *testing.T, f *fakeTier) {
			a, b := mustRegister(t, f, "a"), mustRegister(t, f, "b")
			sa, sb := mustSub(t, f, a, qLight), mustSub(t, f, b, qLight)
			tk, err := a.UnsubscribeAsync(sa.ID())
			if err != nil {
				t.Fatal(err)
			}
			f.advance()
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			if sa.Reason() != ReasonUnsubscribed || len(f.released) != 0 {
				t.Fatalf("reason %v, released %v", sa.Reason(), f.released)
			}
			tk, _ = b.UnsubscribeAsync(sa.ID()) // not b's
			f.advance()
			_, err = tk.Wait()
			wantErr(t, err, fmt.Sprintf(`fake: session "b" has no subscription %d`, sa.ID()))
			tk, _ = b.UnsubscribeAsync(sb.ID())
			f.advance()
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(f.released) != 1 || f.stats().Unsubscribes != 2 {
				t.Fatalf("released %v, stats %+v", f.released, f.stats())
			}
		}},
		{"push to a stream closed in the commit that admitted it", Config{}, func(t *testing.T, f *fakeTier) {
			// Subscribe then close in one batch: the ack is still pending
			// when the stream shuts, and a tier replaying cached epochs to
			// its acks must find the push dropped, not a closed channel.
			s := mustRegister(t, f, "a")
			tk := stage(t, s, qLight)
			if err := s.CloseAsync(); err != nil {
				t.Fatal(err)
			}
			f.mu.Lock()
			_, acks := f.CommitLocked()
			if len(acks) != 1 || !acks[0].Sub.Push(&Update{}) {
				t.Errorf("acks %v: want one, whose push is dropped quietly", acks)
			}
			f.AckLocked(acks)
			f.mu.Unlock()
			sub, err := tk.Wait()
			if err != nil || sub.Reason() != ReasonShutdown || f.stats().Updates != 0 {
				t.Fatalf("sub %v err %v updates %d", sub.Reason(), err, f.stats().Updates)
			}
		}},
		{"close with live subs, use after close", Config{}, func(t *testing.T, f *fakeTier) {
			a, b := mustRegister(t, f, "a"), mustRegister(t, f, "b")
			sa1, sa2, sb := mustSub(t, f, a, qLight), mustSub(t, f, a, qTemp), mustSub(t, f, b, qLight)

			// Session close: streams end with ReasonShutdown, a's own group
			// is released, the shared one lives on.
			if err := a.CloseAsync(); err != nil {
				t.Fatal(err)
			}
			f.advance()
			if sa1.Reason() != ReasonShutdown || sa2.Reason() != ReasonShutdown {
				t.Fatalf("reasons %v %v, want shutdown", sa1.Reason(), sa2.Reason())
			}
			if fmt.Sprint(f.released) != fmt.Sprint([]string{sa2.Key()}) || fmt.Sprint(f.closed) != "[a]" {
				t.Fatalf("released %v closed %v", f.released, f.closed)
			}
			if err := a.CloseAsync(); err != nil {
				t.Fatalf("closing a closed session = %v, want nil", err)
			}
			_, err := a.SubscribeAsync(SubscribeRequest{Query: query.MustParse(qLight)})
			wantErr(t, err, `fake: session "a" is closed`)
			if _, err := f.Register("a"); err != nil {
				t.Fatalf("a closed session's name must be free again: %v", err)
			}

			// Tier close: staged commands fail, live streams shut down,
			// everything afterwards is ErrClosed.
			pending := stage(t, b, qTemp)
			f.mu.Lock()
			f.CloseLocked()
			f.mu.Unlock()
			// The answer is on the ticket's own channel: an accepted command is
			// replied to, not merely unblocked by Wait's closed-tier fallback.
			select {
			case res := <-pending.done:
				if !errors.Is(res.err, ErrClosed) {
					t.Fatalf("staged command at close = %v, want ErrClosed", res.err)
				}
			default:
				t.Fatal("staged command dropped at close: no reply on its ticket")
			}
			if sb.Reason() != ReasonShutdown || len(f.released) != 2 {
				t.Fatalf("reason %v released %v", sb.Reason(), f.released)
			}
			if _, ok := <-sb.Updates(); ok {
				t.Fatal("stream still open after close")
			}
			_, err = b.SubscribeAsync(SubscribeRequest{Query: query.MustParse(qLight)})
			for what, err := range map[string]error{
				"subscribe": err,
				"detach":    b.Detach(),
				"close":     b.CloseAsync(),
				"register":  func() error { _, err := f.Register("z"); return err }(),
				"attach":    func() error { _, _, err := f.Attach("b", b.Token()); return err }(),
				"resume":    func() error { _, err := b.Resume(sb.ID(), 0); return err }(),
			} {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("%s after close = %v, want ErrClosed", what, err)
				}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			if cfg.Buffer == 0 {
				cfg.Buffer = 8
			}
			if cfg.MaxSessions == 0 {
				cfg.MaxSessions = 8
			}
			if cfg.SessionQuota == 0 {
				cfg.SessionQuota = 8
			}
			c.run(t, newFakeTier(cfg))
		})
	}
}

// TestStatsOverlay pins how a tier's counters compose with its upstream's:
// the client-facing ones replace the upstream's (whose sessions and
// subscriptions are the tier's own plumbing), losses add up along the chain.
func TestStatsOverlay(t *testing.T) {
	up := Counters{
		Sessions: 9, ActiveSessions: 9, Subscribes: 9, Updates: 9, Detaches: 9, Epochs: 7,
		QuotaRejected: 1, Evicted: 2, RingDropped: 3, ShedDeadline: 4, Dropped: 5, IdleReaped: 6,
	}
	Stats{
		Sessions: 2, ActiveSessions: 1, Subscribes: 5, Updates: 50,
		QuotaRejected: 10, Evicted: 20, RingDropped: 30, ShedDeadline: 40, Dropped: 50, IdleReaped: 60,
	}.Overlay(&up)
	want := Counters{
		Sessions: 2, ActiveSessions: 1, Subscribes: 5, Updates: 50, Epochs: 7,
		QuotaRejected: 11, Evicted: 22, RingDropped: 33, ShedDeadline: 44, Dropped: 55, IdleReaped: 66,
	}
	if up != want {
		t.Fatalf("overlay = %+v\nwant      %+v", up, want)
	}
}

// TestSorted: the table hands out its keys in ascending order, reuses the
// list between mutations, and a list already handed out is a snapshot.
func TestSorted(t *testing.T) {
	s := NewSorted[string, int]()
	if s.Len() != 0 || len(s.Keys()) != 0 || s.Get("x") != 0 {
		t.Fatal("empty table is not empty")
	}
	for i, k := range []string{"m", "c", "x", "a"} {
		s.Set(k, i+1)
	}
	keys := s.Keys()
	if got := fmt.Sprint(keys); got != "[a c m x]" || s.Len() != 4 || s.Get("x") != 3 {
		t.Fatalf("keys %s len %d", got, s.Len())
	}
	s.Set("c", 9) // replacing a value is not a mutation of the key set
	if again := s.Keys(); &again[0] != &keys[0] || s.Get("c") != 9 {
		t.Fatal("key list rebuilt although no key changed")
	}
	s.Delete("m")
	s.Delete("never-there")
	s.Set("b", 5)
	if got := fmt.Sprint(s.Keys()); got != "[a b c x]" {
		t.Fatalf("keys after delete+insert %s", got)
	}
	if got := fmt.Sprint(keys); got != "[a c m x]" {
		t.Fatalf("snapshot disturbed by later mutations: %s", got)
	}
}

// TestSortedSnapshotSurvivesMutation: a teardown deletes entries while it
// ranges over Values (Router.releaseLocked → teardownTreeLocked), and a
// replaced value must not show through a list handed out before.
func TestSortedSnapshotSurvivesMutation(t *testing.T) {
	s := NewSorted[string, int]()
	for i, k := range []string{"a", "b", "c", "d"} {
		s.Set(k, i)
	}
	keys, vals := s.Keys(), s.Values()
	for i, k := range keys {
		s.Delete(k)
		s.Set("z"+k, -i)
		s.Set("zz", i)
	}
	if fmt.Sprint(keys, vals) != "[a b c d] [0 1 2 3]" {
		t.Fatalf("snapshot disturbed: %v %v", keys, vals)
	}
	if got := fmt.Sprint(s.Keys(), s.Values()); got != "[za zb zc zd zz] [0 -1 -2 -3 3]" {
		t.Fatalf("table after the walk: %s", got)
	}
}

// TestSortedMatchesMap: after any Set / replace / Delete sequence the table
// holds what a map holds, in SortedKeys order.
func TestSortedMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		s, m := NewSorted[int, uint16](), map[int]uint16{}
		for _, op := range ops {
			if k := int(op % 13); op%3 == 0 {
				s.Delete(k)
				delete(m, k)
			} else {
				s.Set(k, op)
				m[k] = op
			}
			keys := SortedKeys(m)
			if s.Len() != len(m) || !slices.Equal(s.Keys(), keys) || len(s.Values()) != len(keys) {
				return false
			}
			for i, k := range keys {
				if s.Values()[i] != m[k] || s.Get(k) != m[k] {
					return false
				}
			}
			if s.Get(13) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
