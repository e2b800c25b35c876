package share

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gateway"
)

// confEnv is one stack under the conformance script: the sessions and
// streams the steps have opened so far, by label.
type confEnv struct {
	t    *testing.T
	b    gateway.Backend
	sess map[string]*gateway.Session
	subs map[string]*gateway.Subscription
	last map[string]uint64 // highest sequence number read per stream
}

// text is err as the script compares it: "" for success, otherwise the
// message after the tier's "<name>: " prefix.
func text(err error) string {
	if err == nil {
		return ""
	}
	_, msg, _ := strings.Cut(err.Error(), ": ")
	return msg
}

func (e *confEnv) register(name string) string {
	s, err := e.b.Register(name)
	if err == nil {
		e.sess[name] = s
	}
	return text(err)
}

func (e *confEnv) subscribe(label, q string) string {
	name, _, _ := strings.Cut(label, ".")
	sub, err := subscribeVia(e.t, e.b, e.sess[name], q)
	if err == nil {
		e.subs[label] = sub
	}
	return text(err)
}

// read drains what the stream holds right now, checks that the sequence
// numbers are contiguous, and reports how many updates there were and
// whether the stream is still open.
func (e *confEnv) read(label string) (n int, open bool) {
	batch, open := takeSub(e.subs[label])
	for i, u := range batch {
		if i > 0 && u.Seq != e.last[label]+1 {
			e.t.Fatalf("%s: seq %d follows %d", label, u.Seq, e.last[label])
		}
		e.last[label] = u.Seq
	}
	return len(batch), open
}

// run advances n quanta, reading the named streams as live clients would.
func (e *confEnv) run(n int, labels ...string) {
	for i := 0; i < n; i++ {
		if _, err := e.b.Advance(testQuantum); err != nil {
			e.t.Fatal(err)
		}
		for _, l := range labels {
			e.read(l)
		}
	}
}

// reattach re-claims session a and returns the resume cursors by stream id.
func (e *confEnv) reattach() (map[gateway.SubID]gateway.ResumeInfo, string) {
	s, infos, err := e.b.Attach("a", e.sess["a"].Token())
	if err != nil {
		return nil, text(err)
	}
	e.sess["a"] = s
	byID := make(map[gateway.SubID]gateway.ResumeInfo)
	for i, in := range infos {
		if i > 0 && in.ID <= infos[i-1].ID {
			e.t.Fatalf("attach cursors not in id order: %+v", infos)
		}
		byID[in.ID] = in
	}
	return byID, ""
}

func (e *confEnv) resume(label string, after uint64) string {
	sub, err := e.sess["a"].Resume(e.subs[label].ID(), after)
	if err == nil {
		e.subs[label] = sub
		e.last[label] = after
	}
	return text(err)
}

// closedWith drains the stream and reports the reason it ended with
// ("live" if it has not).
func (e *confEnv) closedWith(label string) string {
	if _, open := e.read(label); open {
		return "live"
	}
	return e.subs[label].Reason().String()
}

func (e *confEnv) stats() gateway.Stats {
	st, _, err := e.b.ServeStats()
	if err != nil {
		e.t.Fatal(err)
	}
	return st
}

// TestSessionMachineConformance runs one script over the session machine —
// registration, admission limits, dedup, detach / attach / resume, eviction,
// close — against every stack shape, and requires the same error text (after
// the tier's name), the same close reasons and the same lifecycle counters
// from all four: there is one implementation, and this pins its rules.
func TestSessionMachineConformance(t *testing.T) {
	const (
		buffer = 4
		qLight = "SELECT MAX(light) EPOCH DURATION 2048ms"
		qTemp  = "SELECT MIN(temp) EPOCH DURATION 2048ms"
	)
	var cursors map[gateway.SubID]gateway.ResumeInfo
	script := []struct {
		step string
		do   func(e *confEnv) string
		want string
	}{
		{"register", func(e *confEnv) string { return e.register("a") }, ""},
		{"empty name", func(e *confEnv) string { return e.register("") }, "empty session name"},
		{"duplicate name", func(e *confEnv) string { return e.register("a") }, `session "a" already registered`},
		{"fill the table", func(e *confEnv) string { return e.register("b") + e.register("c") }, ""},
		{"session limit", func(e *confEnv) string { return e.register("d") }, "session limit 3 reached"},
		{"a closed session frees its slot and its name", func(e *confEnv) string {
			if err := e.sess["c"].CloseAsync(); err != nil {
				return text(err)
			}
			e.run(1)
			return e.register("c")
		}, ""},

		{"subscribe", func(e *confEnv) string { return e.subscribe("a.light", qLight) + e.subscribe("a.temp", qTemp) }, ""},
		{"quota", func(e *confEnv) string {
			return e.subscribe("a.third", "SELECT MAX(temp) EPOCH DURATION 2048ms")
		}, `session "a" is at its quota of 2 subscriptions`},
		{"unsubscribe", func(e *confEnv) string {
			_, err := pumped(e.t, e.b, func() (struct{}, error) { return struct{}{}, e.sess["a"].Unsubscribe(e.subs["a.temp"].ID()) })
			return text(err) + e.closedWith("a.temp")
		}, "unsubscribed"},
		{"unsubscribe unknown id", func(e *confEnv) string {
			_, err := pumped(e.t, e.b, func() (struct{}, error) { return struct{}{}, e.sess["a"].Unsubscribe(999) })
			return text(err)
		}, `session "a" has no subscription 999`},
		{"dedup hit", func(e *confEnv) string {
			if msg := e.subscribe("b.light", qLight); msg != "" {
				return msg
			}
			return fmt.Sprint("shared=", e.subs["a.light"].Shared(), "/", e.subs["b.light"].Shared())
		}, "shared=false/true"},

		{"detach", func(e *confEnv) string {
			e.run(3, "a.light", "b.light")
			if e.last["a.light"] == 0 {
				return "nothing delivered in 3 quanta"
			}
			return text(e.sess["a"].Detach()) + e.closedWith("a.light")
		}, "detached"},
		{"second detach", func(e *confEnv) string { return text(e.sess["a"].Detach()) }, `session "a" is already detached`},
		{"subscribe while detached", func(e *confEnv) string {
			// Born detached: there is no live stream to see close, only the reason.
			return e.subscribe("a.temp", qTemp) + e.subs["a.temp"].Reason().String()
		}, "detached"},
		{"attach, unknown session", func(e *confEnv) string {
			_, _, err := e.b.Attach("nobody", "x")
			return text(err)
		}, `no session "nobody"`},
		{"attach, bad token", func(e *confEnv) string {
			_, _, err := e.b.Attach("a", "not-the-token")
			return text(err)
		}, `bad token for session "a"`},
		{"attach", func(e *confEnv) (msg string) {
			e.run(2, "b.light") // two epochs park in a's rings: they fit
			cursors, msg = e.reattach()
			if msg == "" && len(cursors) != 2 {
				return fmt.Sprintf("attach listed %d streams, want 2", len(cursors))
			}
			return msg
		}, ""},
		{"attach while attached", func(e *confEnv) string {
			_, msg := e.reattach()
			return msg
		}, `session "a" is already attached`},
		{"resume beyond delivered", func(e *confEnv) string {
			n := cursors[e.subs["a.temp"].ID()].LastSeq
			msg := e.resume("a.temp", n+1)
			if msg == fmt.Sprintf("resume after seq %d but only %d delivered", n+1, n) {
				return "refused"
			}
			return msg
		}, "refused"},
		{"resume, tail replay", func(e *confEnv) string {
			seen := e.last["a.light"]
			if msg := e.resume("a.light", seen) + e.resume("a.temp", 0); msg != "" {
				return msg
			}
			n, _ := e.read("a.light")
			if want := cursors[e.subs["a.light"].ID()].LastSeq - seen; uint64(n) != want || n == 0 {
				return fmt.Sprintf("replayed %d updates after seq %d, want %d", n, seen, want)
			}
			return fmt.Sprint("gaps=", e.stats().ResumeGaps)
		}, "gaps=0"},
		{"resume a live stream", func(e *confEnv) string { return e.resume("a.light", e.last["a.light"]) },
			"stream 1 is already attached"},
		{"resume, ring-shed gap", func(e *confEnv) string {
			seen := e.last["a.light"]
			if msg := text(e.sess["a"].Detach()); msg != "" {
				return msg
			}
			e.run(3*buffer, "b.light") // the ring sheds what the client still needs
			cursors, _ = e.reattach()
			if msg := e.resume("a.light", seen) + e.resume("a.temp", cursors[e.subs["a.temp"].ID()].LastSeq); msg != "" {
				return msg
			}
			if n, _ := e.read("a.light"); n != buffer || e.last["a.light"] != cursors[e.subs["a.light"].ID()].LastSeq {
				return fmt.Sprintf("replayed %d updates up to seq %d, want the ring's %d up to %d",
					n, e.last["a.light"], buffer, cursors[e.subs["a.light"].ID()].LastSeq)
			}
			return fmt.Sprint("gaps=", e.stats().ResumeGaps)
		}, "gaps=1"},

		{"slow consumer", func(e *confEnv) string {
			e.read("b.light")
			e.run(buffer+3, "a.light", "a.temp") // b stops reading
			n, open := e.read("b.light")
			if open || n != buffer {
				return fmt.Sprintf("b.light open=%v with %d updates buffered, want closed with %d", open, n, buffer)
			}
			st := e.stats()
			return fmt.Sprintf("%s evicted=%d dropped=%d a.light=%s", e.closedWith("b.light"), st.Evicted, st.Dropped, e.closedWith("a.light"))
		}, "evicted evicted=1 dropped=1 a.light=live"},

		{"close", func(e *confEnv) string {
			if err := e.sess["a"].CloseAsync(); err != nil {
				return text(err)
			}
			e.run(1)
			return e.closedWith("a.light") + "/" + e.closedWith("a.temp")
		}, "shutdown/shutdown"},
		{"use after close", func(e *confEnv) string {
			a := e.sess["a"]
			_, sub := a.Subscribe(gateway.SubscribeRequest{})
			_, res := a.Resume(1, 0)
			if err := a.CloseAsync(); err != nil {
				return "closing a closed session: " + err.Error()
			}
			return strings.Join([]string{text(sub), text(a.Unsubscribe(1)), text(a.Detach()), text(res)}, "|")
		}, strings.Repeat(`|session "a" is closed`, 4)[1:]},
		{"a closed session cannot be re-attached", func(e *confEnv) string {
			_, msg := e.reattach()
			return msg
		}, `no session "a"`},
	}

	const wantCounters = "sessions=4 active=2 subscribes=4 unsubscribes=1 quota_rejected=1 dedup_hits=1 live=0 " +
		"evicted=1 dropped=1 detaches=2 attaches=2 resumes=4 gaps=1 idle_reaped=0"
	for name, b := range stacksWith(t, buffer, 3, 2) {
		t.Run(name, func(t *testing.T) {
			e := &confEnv{t: t, b: b, sess: map[string]*gateway.Session{},
				subs: map[string]*gateway.Subscription{}, last: map[string]uint64{}}
			for _, s := range script {
				if got := s.do(e); got != s.want {
					t.Fatalf("%s: got %q, want %q", s.step, got, s.want)
				}
			}
			st := e.stats()
			got := fmt.Sprintf("sessions=%d active=%d subscribes=%d unsubscribes=%d quota_rejected=%d dedup_hits=%d live=%d "+
				"evicted=%d dropped=%d detaches=%d attaches=%d resumes=%d gaps=%d idle_reaped=%d",
				st.Sessions, st.ActiveSessions, st.Subscribes, st.Unsubscribes, st.QuotaRejected, st.DedupHits, st.ActiveSubscriptions,
				st.Evicted, st.Dropped, st.Detaches, st.Attaches, st.Resumes, st.ResumeGaps, st.IdleReaped)
			if got != wantCounters {
				t.Fatalf("lifecycle counters\n got %s\nwant %s", got, wantCounters)
			}
		})
	}
}
