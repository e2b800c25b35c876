package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// runOpts selects how long one serving run lasts and whether it is traced.
type runOpts struct {
	// rounds > 0 fixes the work (exact counts repeat); otherwise the window
	// runs whole blocks of rounds until seconds have elapsed.
	rounds  int
	seconds float64
	tr      *tracer // nil: untraced
}

// blockRounds is the granularity of the time-bound window and of the
// per-block rates. It is a multiple of probePeriod, churnPeriod and every
// epoch the workloads use (4, 6, 8, 10 and 12 rounds; 1, 2 and 4 on the
// region aggregates), so every block owes the same results and carries the
// same request schedule.
const blockRounds = 120

// stallLimit bounds any single wait for the clients to catch up; past it
// the run is reported as failed instead of hanging.
const stallLimit = 60 * time.Second

// runState is one serving run: set-up, measured window, teardown.
type runState struct {
	spec *spec
	ld   load
	seed int64
	opt  runOpts

	st    *stack
	conns [numConns]*conn

	fails   failures
	groups  groupTable
	closing atomic.Bool

	// Delivered-frame accounting shared with the readers.
	frames atomic.Int64
	want   atomic.Int64  // the driver's current wait target (0: not waiting)
	wake   chan struct{} // buffered(1): a reader crossed want
	round  atomic.Int64  // current round, for the readers' stamps

	// Driver-owned.
	ordinal   uint64
	applied   int64 // commands the backend has committed
	virtMS    int64
	standing  [numConns][]*sub // live standing subscriptions, oldest first
	probe     [numConns]*sub   // each connection's live probe, if any
	probeDrop [numConns]int    // the round it is unsubscribed
	nextSwap  [numConns]int    // next stream index per connection (churn)
	nprobe    int

	cal *calibrator
	res runResult
}

// runResult is what one serving run measured.
type runResult struct {
	setupS      float64
	rounds      int
	wallS       float64
	frames      int64
	expected    int64   // server-side Updates over the window
	roundRate   float64 // median over blocks of rounds per reference second
	hostSpeed   float64 // median over blocks of the calibration factor
	cpuRefS     float64 // process user+sys CPU over the blocks, in reference seconds
	radio       radioTotals
	ackMS       []float64
	ttfrMS      []float64
	ttfrVirtMS  []float64
	ackRounds   []float64
	ttfrRounds  []float64
	stallS      float64
	fingerprint uint64
	requests    int64 // subscribe + unsubscribe requests sent, set-up included
	failed      int64
	failDetail  string
}

// delivered counts one result frame read by a client and wakes the driver
// if that is the frame it is waiting for.
func (r *runState) delivered() {
	got := r.frames.Add(1)
	if w := r.want.Load(); w != 0 && got >= w {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
	if r.opt.tr != nil {
		r.opt.tr.lag.onFrames(got)
	}
}

// waitFrames blocks until the clients have read target frames in total,
// and returns how long it blocked.
func (r *runState) waitFrames(target int64) (time.Duration, error) {
	if r.frames.Load() >= target {
		return 0, nil
	}
	t0 := time.Now()
	r.want.Store(target)
	defer r.want.Store(0)
	timeout := time.NewTimer(stallLimit)
	defer timeout.Stop()
	for r.frames.Load() < target {
		select {
		case <-r.wake:
		case <-timeout.C:
			return time.Since(t0), fmt.Errorf("clients stalled: %d of %d frames read after %v", r.frames.Load(), target, stallLimit)
		}
	}
	return time.Since(t0), nil
}

// pump commits staged commands without moving virtual time until the
// backend has applied n more of them. Each request is pumped before the
// next is sent, so the commit order — and with it subscription ids, tier-1
// insertion order and every delivered count — is the same on every run.
func (r *runState) pump(n int64) error {
	target := r.applied + n
	deadline := time.Now().Add(stallLimit)
	for r.applied < target {
		k, err := r.st.backend.Advance(0)
		if err != nil {
			return err
		}
		r.applied += int64(k)
		if k == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("request was not staged within %v", stallLimit)
			}
			runtime.Gosched()
		}
	}
	return nil
}

func (r *runState) newSub(text string, probe bool) (*sub, error) {
	meta, err := metaOf(text)
	if err != nil {
		return nil, err
	}
	r.ordinal++
	return &sub{
		tag:      fmt.Sprintf("s%d", r.ordinal),
		probe:    probe,
		sentRnd:  r.round.Load(),
		sentVirt: r.virtMS,
		acked:    make(chan struct{}),
		check:    subCheck{ordinal: r.ordinal, meta: meta},
	}, nil
}

// subscribe sends one subscribe on connection c and pumps it to commit.
func (r *runState) subscribe(c int, text string, probe bool) (*sub, error) {
	s, err := r.newSub(text, probe)
	if err != nil {
		return nil, err
	}
	var sp *span
	if r.opt.tr != nil {
		sp = r.opt.tr.begin("subscribe", r.opt.tr.roundSpan)
	}
	if err := r.conns[c].subscribe(s, text); err != nil {
		return nil, err
	}
	r.res.requests++
	if err := r.pump(1); err != nil {
		return nil, err
	}
	if sp != nil {
		r.opt.tr.end(sp)
		r.opt.tr.commitMS = append(r.opt.tr.commitMS, float64(sp.End-sp.Start)/1e6)
		r.opt.tr.pendingAcks = append(r.opt.tr.pendingAcks, ackSpan{s, sp.ID})
	}
	return s, nil
}

func (r *runState) unsubscribe(c int, s *sub) error {
	if err := r.conns[c].unsubscribe(s); err != nil {
		return err
	}
	r.res.requests++
	return r.pump(1)
}

// setup builds the stack, dials the connections and subscribes the
// standing sets: connection 0's queries then connection 1's, each in
// order, at virtual t=0.
func (r *runState) setup() error {
	speed := r.cal.speed()
	t0 := time.Now()
	st, err := buildStack(r.spec, r.seed, r.opt.tr)
	if err != nil {
		return err
	}
	r.st = st
	r.wake = make(chan struct{}, 1)
	for c := range r.conns {
		cn, err := dial(r, st.srv.Addr().String(), fmt.Sprintf("bench-%d", c))
		if err != nil {
			return err
		}
		r.conns[c] = cn
	}
	for c := range r.conns {
		// The handler stages one request per commit, so a connection's
		// subscribes can go out together and still commit in order.
		subs := make([]*sub, 0, len(r.ld.setup[c]))
		for _, text := range r.ld.setup[c] {
			s, err := r.newSub(text, false)
			if err != nil {
				return err
			}
			if err := r.conns[c].subscribe(s, text); err != nil {
				return err
			}
			r.res.requests++
			subs = append(subs, s)
		}
		if err := r.pump(int64(len(subs))); err != nil {
			return err
		}
		for _, s := range subs {
			<-s.acked
			if s.err != "" {
				return fmt.Errorf("set-up subscribe refused: %s", s.err)
			}
		}
		r.standing[c] = subs
		r.nextSwap[c] = (len(subs)*numConns + c) % max(1, len(r.ld.stream))
	}
	r.res.setupS = time.Since(t0).Seconds() * speed
	return nil
}

// teardown closes backends, server and sockets and joins the readers.
func (r *runState) teardown() {
	r.closing.Store(true)
	if r.st != nil {
		r.st.close()
	}
	for _, cn := range r.conns {
		if cn != nil {
			cn.finish()
		}
	}
}

// actions issues the requests scheduled for this round.
func (r *runState) actions(round int) error {
	if r.spec.churn {
		for c := range r.conns {
			if round%churnPeriod != c*churnPeriod/numConns {
				continue
			}
			oldest := r.standing[c][0]
			if err := r.unsubscribe(c, oldest); err != nil {
				return err
			}
			text := r.ld.stream[r.nextSwap[c]]
			r.nextSwap[c] = (r.nextSwap[c] + numConns) % len(r.ld.stream)
			s, err := r.subscribe(c, text, true)
			if err != nil {
				return err
			}
			r.standing[c] = append(r.standing[c][1:], s)
		}
		return nil
	}
	// Steady workloads: probe k subscribes at round k*probePeriod + 5k%12 —
	// the offset visits every phase of the longest epoch (12 rounds), so the
	// wait for the next epoch boundary is sampled evenly, and never steps
	// back far enough for two probes to overlap on a connection —
	// alternating a duplicate of a standing query with a fresh one, and is
	// dropped probeLife rounds later.
	for c := range r.conns {
		if p := r.probe[c]; p != nil && round == r.probeDrop[c] {
			if err := r.unsubscribe(c, p); err != nil {
				return err
			}
			r.probe[c] = nil
		}
	}
	if k := r.nprobe; round == k*probePeriod+5*k%12 {
		var text string
		if k%2 == 0 {
			all := r.ld.setup[(k/2)%numConns]
			text = all[(k/2/numConns)%len(all)]
		} else {
			text = r.ld.fresh[(k/2)%len(r.ld.fresh)]
		}
		c := k % numConns
		if k%4 >= 2 { // so both connections see both kinds of probe
			c = numConns - 1 - c
		}
		s, err := r.subscribe(c, text, true)
		if err != nil {
			return err
		}
		r.probe[c], r.probeDrop[c] = s, round+probeLife
		r.nprobe++
	}
	return nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window runs the measured window: a closed loop of rounds, each
// [requests, pumped to commit] → Advance(quantum) → wait until the clients
// are within inflightRounds of the server. Every blockRounds rounds the
// driver lets the clients drain, closes the block (wall and CPU), and times
// the calibration kernel, so each block is a complete unit of work with the
// host's speed measured beside it.
func (r *runState) window() error {
	tr := r.opt.tr
	backend := r.st.backend
	var produced [inflightRounds + 1]int64 // server-side Updates after each recent round
	st0, _, err := backend.ServeStats()
	if err != nil {
		return err
	}
	base := st0.Updates // set-up deliveries, counted on both sides
	radio0 := r.st.radio()
	start := time.Now()
	blockStart, blockCPU := start, cpuSeconds()
	var rates, speeds []float64 // per block: reference round rate, host speed
	var stall time.Duration
	var cpuRef, busy float64
	last := base

	round := 0
	for ; ; round++ {
		if round%blockRounds == 0 {
			if round > 0 {
				d, err := r.waitFrames(last)
				if err != nil {
					return err
				}
				stall += d
				now := time.Now()
				cpu := cpuSeconds()
				f := r.cal.speed()
				wall := now.Sub(blockStart).Seconds()
				rates = append(rates, blockRounds/wall/f)
				speeds = append(speeds, f)
				cpuRef += (cpu - blockCPU) * f
				busy += wall
				blockStart, blockCPU = time.Now(), cpuSeconds()
			}
			if r.opt.rounds > 0 {
				if round >= r.opt.rounds {
					break
				}
			} else if time.Since(start).Seconds() >= r.opt.seconds {
				break
			}
		}
		r.round.Store(int64(round))
		if tr != nil {
			tr.beginRound(round)
		}
		if err := r.actions(round); err != nil {
			return fmt.Errorf("round %d: %w (%s)", round, err, r.fails.String())
		}
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		k, err := backend.Advance(quantum)
		if err != nil {
			return fmt.Errorf("round %d: advance: %w", round, err)
		}
		r.applied += int64(k)
		r.virtMS += quantumMS
		st, _, err := backend.ServeStats()
		if err != nil {
			return err
		}
		last = st.Updates
		produced[round%len(produced)] = last
		if tr != nil {
			tr.endAdvance(t0, last)
		}
		if round >= inflightRounds {
			d, err := r.waitFrames(produced[(round-inflightRounds)%len(produced)])
			if err != nil {
				return err
			}
			stall += d
		}
		if tr != nil {
			tr.endRound()
		}
	}

	res := &r.res
	res.rounds = round
	res.wallS = busy
	res.cpuRefS = cpuRef
	res.frames = r.frames.Load() - base
	res.expected = last - base
	res.radio = r.st.radio().sub(radio0)
	res.stallS = stall.Seconds()
	res.roundRate = median(rates)
	res.hostSpeed = median(speeds)
	return nil
}

// collect gathers the per-subscription samples after the readers exited.
func (r *runState) collect() {
	res := &r.res
	for _, cn := range r.conns {
		res.fingerprint += cn.fp
		for _, s := range cn.all {
			if !s.probe {
				continue
			}
			res.ackMS = append(res.ackMS, ms(s.ackAt.Sub(s.sentAt))*res.hostSpeed)
			res.ackRounds = append(res.ackRounds, float64(s.ackRnd-s.sentRnd))
			if s.frames == 0 {
				continue
			}
			res.ttfrMS = append(res.ttfrMS, ms(s.firstAt.Sub(s.sentAt))*res.hostSpeed)
			virt := float64(s.firstVirt - s.sentVirt)
			res.ttfrVirtMS = append(res.ttfrVirtMS, virt)
			res.ttfrRounds = append(res.ttfrRounds, math.Ceil(virt/float64(quantumMS)))
		}
	}
	short := res.expected - res.frames
	if short < 0 {
		short = -short
	}
	res.failed = r.fails.total() + short
	res.failDetail = r.fails.String()
	if short != 0 {
		res.failDetail += fmt.Sprintf(" undelivered=%d", short)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) by nearest rank; 0 for
// no samples. The benchmark keeps its own estimator rather than calling
// internal/stats, so that a change to the program cannot move it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func newRun(s *spec, seed int64, opt runOpts) *runState {
	return &runState{spec: s, seed: seed, opt: opt, ld: s.gen(seed, s), cal: newCalibrator()}
}

// serve runs set-up, the measured window and teardown for one workload.
// Gateway drops and evictions are read before teardown and count as
// failures.
func serve(s *spec, seed int64, opt runOpts) (*runState, error) {
	r := newRun(s, seed, opt)
	if opt.tr != nil {
		opt.tr.frames = &r.frames
	}
	err := r.setup()
	if err == nil {
		err = r.window()
	}
	var dropped, evicted int64
	if r.st != nil {
		if st, _, serr := r.st.backend.ServeStats(); serr == nil {
			dropped, evicted = st.Dropped, st.Evicted
		}
		if opt.tr != nil && err == nil {
			opt.tr.capture(r)
		}
	}
	r.teardown()
	if err != nil {
		return r, err
	}
	r.collect()
	r.res.failed += dropped + evicted
	if dropped+evicted > 0 {
		r.res.failDetail += fmt.Sprintf(" dropped=%d evicted=%d", dropped, evicted)
	}
	return r, nil
}
