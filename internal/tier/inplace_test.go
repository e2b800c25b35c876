package tier

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/sim"
)

// inPlaceCarrier holds a consumer's streams on a session it reads in place,
// as the federation router's carrier does on a shard session.
type inPlaceCarrier struct{ *Session }

func (c inPlaceCarrier) UnsubscribeAsync(id SubID) error {
	_, err := c.Session.UnsubscribeAsync(id)
	return err
}

func (c inPlaceCarrier) Resume(id SubID, after uint64) (Source, error) {
	sub, err := c.Session.Resume(id, after)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// chanCarrier holds a consumer's streams on a session it reads through the
// streams' channels: the session is never marked, and every stream's Take
// is a channel reader's.
type chanCarrier struct{ inPlaceCarrier }

func (c chanCarrier) ReadInPlace() {}

func (c chanCarrier) Resume(id SubID, after uint64) (Source, error) {
	sub, err := c.Session.Resume(id, after)
	if err != nil {
		return nil, err
	}
	return chanSource{sub}, nil
}

type chanSource struct{ *Sub }

func (c chanSource) Take(spare []Update) ([]Update, bool) { return takeChan(c.Updates(), spare) }

// consumer is a composing tier's upstream half: it holds fan-in streams on
// one session of a fake tier and logs every update it folds.
type consumer struct {
	sess    *Session
	inPlace bool
	streams []*Stream
	subs    []*Sub // parallel to streams
	log     strings.Builder
}

func (c *consumer) carrier() Carrier {
	if c.inPlace {
		return inPlaceCarrier{c.sess}
	}
	return chanCarrier{inPlaceCarrier{c.sess}}
}

// drain folds every stream in subscription order, inside one Read when the
// session is read in place.
func (c *consumer) drain() {
	fold := func() {
		for i, st := range c.streams {
			st.Drain(func(u Update) {
				fmt.Fprintf(&c.log, "%d:%d@%d=%v ", c.subs[i].ID(), u.Seq, u.At, u.Aggs[0].Value)
			})
		}
	}
	if c.inPlace {
		c.sess.Read(fold)
	} else {
		fold()
	}
	c.log.WriteString("|")
}

// inPlaceScriptQueries are the groups a script subscribes to.
var inPlaceScriptQueries = []string{qLight, qTemp, "SELECT AVG(humidity) EPOCH DURATION 8192ms"}

// runInPlaceScript drives one seeded script of subscribes, pushes (some
// stalling a stream past its bound), drains, detaches, re-attaches,
// unsubscribes and a final close or crash, and returns the consumer's fold
// log, every stream's close reason and resume cursor, and the tier's Stats.
func runInPlaceScript(t *testing.T, seed int64, inPlace bool) (string, Stats) {
	t.Helper()
	const buffer = 4
	rng := rand.New(rand.NewSource(seed))
	f := newFakeTier(Config{Buffer: buffer, MaxSessions: 4, SessionQuota: 64})
	sess := mustRegister(t, f, "up")
	c := &consumer{sess: sess, inPlace: inPlace}
	attached, at := true, sim.Time(0)
	for step := 0; step < 60; step++ {
		switch op := rng.Intn(20); {
		case op < 4: // subscribe
			tk := stage(t, sess, inPlaceScriptQueries[rng.Intn(len(inPlaceScriptQueries))])
			st := new(Stream)
			var sub *Sub
			st.Stage(c.carrier(), func() (Source, error) {
				var err error
				if sub, err = tk.Wait(); err != nil {
					return nil, err
				}
				if inPlace {
					return sub, nil
				}
				return chanSource{sub}, nil
			})
			f.advance()
			if _, err := st.Resolve(); err != nil {
				t.Fatal(err)
			}
			c.streams, c.subs = append(c.streams, st), append(c.subs, sub)
		case op < 11: // push, from a quantum on a goroutine of its own
			text := query.MustParse(inPlaceScriptQueries[rng.Intn(len(inPlaceScriptQueries))]).String()
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
			fmt.Fprintf(&c.log, "attach %v resumed %d|", infos, Reattach(c.carrier(), infos, c.streams))
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
		if inPlace && c.subs[i].Updates() != nil {
			t.Fatalf("stream %d of a session read in place has a channel", c.subs[i].ID())
		}
		fmt.Fprintf(&c.log, "\n%d: id=%d lastSeq=%d reason=%v", c.subs[i].ID(), st.ID(), st.lastSeq, c.subs[i].Reason())
	}
	return c.log.String(), f.stats()
}

// TestInPlaceMatchesChannel runs seeded scripts against two consumers of the
// same upstream behaviour — one reads its session in place (Sub.Take inside
// Session.Read), the other through its streams' channels — and requires the
// same folded sequences (Seq, At and payload), close reasons, resume
// cursors and Stats. Across the seeds the scripts must reach every bound:
// evictions, ring drops, resumes and resume gaps.
func TestInPlaceMatchesChannel(t *testing.T) {
	var reached Stats
	for seed := int64(1); seed <= 64; seed++ {
		chanLog, chanStats := runInPlaceScript(t, seed, false)
		inLog, inStats := runInPlaceScript(t, seed, true)
		if inLog != chanLog {
			t.Fatalf("seed %d: in place folded\n%s\nchannel folded\n%s", seed, inLog, chanLog)
		}
		if inStats != chanStats {
			t.Fatalf("seed %d: in place %+v, channel %+v", seed, inStats, chanStats)
		}
		reached.Evicted += inStats.Evicted
		reached.RingDropped += inStats.RingDropped
		reached.Resumes += inStats.Resumes
		reached.ResumeGaps += inStats.ResumeGaps
		reached.Unsubscribes += inStats.Unsubscribes
	}
	t.Logf("reached: %d evictions, %d ring drops, %d resumes (%d with a gap), %d unsubscribes",
		reached.Evicted, reached.RingDropped, reached.Resumes, reached.ResumeGaps, reached.Unsubscribes)
	if reached.Evicted == 0 || reached.RingDropped == 0 || reached.Resumes == 0 || reached.ResumeGaps == 0 || reached.Unsubscribes == 0 {
		t.Fatalf("the scripts missed a bound: %+v", reached)
	}
}
