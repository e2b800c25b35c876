package tier

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
)

// sessionCarrier holds a consumer's streams on one session of a fake tier,
// as the federation router's carrier does on a shard session.
type sessionCarrier struct{ *Session }

func (c sessionCarrier) UnsubscribeAsync(id SubID) error {
	_, err := c.Session.UnsubscribeAsync(id)
	return err
}

func (c sessionCarrier) Resume(id SubID, after uint64) (Source, error) {
	sub, err := c.Session.Resume(id, after)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// consumer is a composing tier's upstream half: it holds fan-in streams on
// one session of a fake tier and logs every update it folds.
type consumer struct {
	sess    *Session
	streams []*Stream
	subs    []*Sub // parallel to streams
	log     strings.Builder
}

// drain folds every stream in subscription order, inside one Read.
func (c *consumer) drain() {
	c.sess.Read(func() {
		for i, st := range c.streams {
			st.Drain(func(u Update) {
				fmt.Fprintf(&c.log, "%d:%d@%d=%v ", c.subs[i].ID(), u.Seq, u.At, u.Aggs[0].Value)
			})
		}
	})
	c.log.WriteString("|")
}

// streamScriptQueries are the groups a script subscribes to.
var streamScriptQueries = []string{qLight, qTemp, "SELECT AVG(humidity) EPOCH DURATION 8192ms"}

// runStreamScript drives one seeded script of subscribes, pushes (some
// stalling a stream past its bound), drains, detaches, re-attaches,
// unsubscribes and a final close or crash, and returns the consumer's fold
// log, every stream's close reason and resume cursor, and the tier's Stats.
func runStreamScript(t *testing.T, seed int64) (string, Stats) {
	t.Helper()
	const buffer = 4
	rng := rand.New(rand.NewSource(seed))
	f := newFakeTier(Config{Buffer: buffer, MaxSessions: 4, SessionQuota: 64})
	sess := mustRegister(t, f, "up")
	c := &consumer{sess: sess}
	attached, at := true, sim.Time(0)
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(20); {
		case op < 4: // subscribe
			tk := stage(t, sess, streamScriptQueries[rng.Intn(len(streamScriptQueries))])
			st := new(Stream)
			var sub *Sub
			st.Stage(sessionCarrier{sess}, func() (Source, error) {
				var err error
				if sub, err = tk.Wait(); err != nil {
					return nil, err
				}
				return sub, nil
			})
			f.advance()
			if _, err := st.Resolve(); err != nil {
				t.Fatal(err)
			}
			c.streams, c.subs = append(c.streams, st), append(c.subs, sub)
		case op < 11: // push, from a quantum on a goroutine of its own
			text := query.MustParse(streamScriptQueries[rng.Intn(len(streamScriptQueries))]).String()
			n := 1 + rng.Intn(buffer+2)
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(1000))
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.mu.Lock()
				defer f.mu.Unlock()
				g := f.groups[text]
				for _, v := range vals {
					if g == nil {
						return
					}
					at++
					g.Deliver(&Update{At: at, Aggs: []query.AggResult{{Value: v}}})
				}
			}()
			<-done
		case op < 15:
			c.drain()
		case op < 16 && attached:
			if err := sess.Detach(); err != nil {
				t.Fatal(err)
			}
			for _, st := range c.streams {
				st.Detach()
			}
			attached = false
		case op < 17 && !attached:
			s, infos, err := f.Attach("up", sess.Token())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&c.log, "attach %v resumed %d|", infos, Reattach(sessionCarrier{s}, infos, c.streams))
			sess, c.sess, attached = s, s, true
		case op < 19 && len(c.streams) > 0:
			if st := c.streams[rng.Intn(len(c.streams))]; st.holders > 0 {
				st.Release()
				f.advance()
			}
		case op == 19:
			if rng.Intn(2) == 0 {
				if err := sess.CloseAsync(); err != nil {
					t.Fatal(err)
				}
				f.advance()
				c.log.WriteString("close|")
			} else {
				f.mu.Lock()
				f.CrashLocked()
				f.mu.Unlock()
				c.log.WriteString("crash|")
			}
			step = 60
		}
	}
	c.drain()
	for i, st := range c.streams {
		fmt.Fprintf(&c.log, "\n%d: id=%d lastSeq=%d reason=%v", c.subs[i].ID(), st.ID(), st.lastSeq, c.subs[i].Reason())
	}
	return c.log.String(), f.stats()
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/stream_scripts.golden")

// streamScriptsGolden pins, per seed, what a consumer of the seeded stream
// scripts sees: digests of its fold log (folded Seq/At/payload, then every
// stream's close reason and resume cursor) and of the tier's Stats.
const streamScriptsGolden = "testdata/stream_scripts.golden"

// TestStreamScriptsGolden runs seeded scripts of subscribes, pushes from a
// goroutine of their own (some stalling a stream past its bound), drains,
// detaches, re-attaches, unsubscribes and a final close or crash, and holds
// what the consumer saw per seed — digests of its folded log (Seq, At and
// payload), close reasons and resume cursors, and of the tier's Stats — to
// the digests pinned when streams were still read through channels.
// Across the seeds the scripts must reach every bound: evictions, ring
// drops, resumes and resume gaps. -update rewrites the file.
func TestStreamScriptsGolden(t *testing.T) {
	var b strings.Builder
	var reached Stats
	for seed := int64(1); seed <= 64; seed++ {
		log, st := runStreamScript(t, seed)
		fmt.Fprintf(&b, "seed %d log %x stats %x\n", seed, sha256.Sum256([]byte(log)), sha256.Sum256([]byte(fmt.Sprintf("%+v", st))))
		reached.Evicted += st.Evicted
		reached.RingDropped += st.RingDropped
		reached.Resumes += st.Resumes
		reached.ResumeGaps += st.ResumeGaps
		reached.Unsubscribes += st.Unsubscribes
	}
	t.Logf("reached: %d evictions, %d ring drops, %d resumes (%d with a gap), %d unsubscribes",
		reached.Evicted, reached.RingDropped, reached.Resumes, reached.ResumeGaps, reached.Unsubscribes)
	if reached.Evicted == 0 || reached.RingDropped == 0 || reached.Resumes == 0 || reached.ResumeGaps == 0 || reached.Unsubscribes == 0 {
		t.Fatalf("the scripts missed a bound: %+v", reached)
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(streamScriptsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(streamScriptsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stream scripts drifted from %s:\n%s", streamScriptsGolden, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "- %s\n+ %s\n", wl, gl)
		}
	}
	return b.String()
}
