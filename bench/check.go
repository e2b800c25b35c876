package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/gateway"
)

// failures counts every way a run can be wrong, by kind. Any non-zero
// counter makes the run incorrect and the process exit non-zero.
type failures struct {
	errorReplies atomic.Int64 // error (incl. overloaded/shed) responses to a request
	closed       atomic.Int64 // `closed` frames nobody asked for
	seqGaps      atomic.Int64 // per-subscription seq not contiguous from 1
	atOrder      atomic.Int64 // at_ms not strictly increasing
	atEpoch      atomic.Int64 // at_ms not a multiple of the query's epoch
	diverged     atomic.Int64 // same canonical, same at_ms, different values
	aggIdentity  atomic.Int64 // AVG*COUNT != SUM on a region aggregate
	countBound   atomic.Int64 // COUNT above the region size
	stray        atomic.Int64 // frame for a subscription that was never acked
	transport    atomic.Int64 // connection read errors outside teardown
}

func (f *failures) total() int64 {
	return f.errorReplies.Load() + f.closed.Load() + f.seqGaps.Load() + f.atOrder.Load() +
		f.atEpoch.Load() + f.diverged.Load() + f.aggIdentity.Load() + f.countBound.Load() +
		f.stray.Load() + f.transport.Load()
}

func (f *failures) String() string {
	return fmt.Sprintf("error_replies=%d closed=%d seq_gaps=%d at_order=%d at_epoch=%d diverged=%d agg_identity=%d count_bound=%d stray=%d transport=%d",
		f.errorReplies.Load(), f.closed.Load(), f.seqGaps.Load(), f.atOrder.Load(), f.atEpoch.Load(),
		f.diverged.Load(), f.aggIdentity.Load(), f.countBound.Load(), f.stray.Load(), f.transport.Load())
}

// FNV-1a, inlined so hashing a frame allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// digest summarizes a result frame's (at_ms, values) two ways. exact is
// FNV-1a over every bit and feeds the run's fingerprint. shape, sum and
// abs compare two subscribers' copies of one epoch: shape covers what must
// match bit for bit (timestamp, aggregate names, groups, nodes, attribute
// names, emptiness), while the float values are compared as a sum within a
// relative tolerance — a live recombination and a cache replay may add the
// same partials in a different order and differ in the last ulp.
//
// An acquisition epoch is a set of rows and a row a set of attribute
// values, so both combine commutatively.
type digest struct {
	exact, shape uint64
	sum, abs     float64
}

func digestOf(r *gateway.Response) digest {
	d := digest{exact: fnvU64(fnvOffset, uint64(r.AtMS))}
	d.shape = d.exact
	value := func(v float64) {
		d.sum += v
		d.abs += math.Abs(v)
	}
	for i := range r.Aggs {
		a := &r.Aggs[i]
		d.shape = fnvU64(fnvStr(d.shape, a.Agg), uint64(a.Group))
		if a.Empty {
			d.shape = fnvU64(d.shape, 1)
		}
		d.exact = fnvU64(d.exact, math.Float64bits(a.Value))
		value(a.Value)
	}
	var rowsExact, rowsShape uint64
	for i := range r.Rows {
		row := &r.Rows[i]
		var exact, shape uint64
		for k, v := range row.Values {
			kh := fnvStr(fnvOffset, k)
			shape += kh
			exact += fnvU64(kh, math.Float64bits(v))
			value(v)
		}
		node := fnvU64(fnvOffset, uint64(row.Node))
		rowsShape += fnvU64(node, shape)
		rowsExact += fnvU64(node, exact)
	}
	d.shape = fnvU64(d.shape, rowsShape)
	d.exact = fnvU64(fnvU64(d.exact, d.shape), rowsExact)
	return d
}

// same reports whether two subscribers' copies of one epoch agree.
func (d digest) same(o digest) bool {
	return d.shape == o.shape && math.Abs(d.sum-o.sum) <= 1e-9*math.Max(1, math.Max(d.abs, o.abs))
}

// historyWindow is how many recent epochs of a canonical query's history
// are kept for cross-subscriber comparison. Subscribers of one canonical
// receive an epoch within the in-flight window of each other (or, on a
// cache replay, at most the cache depth behind), far inside this.
const historyWindow = 64

// canonGroup is the delivered history of one canonical query, shared by
// every subscription whose ack named it.
type canonGroup struct {
	mu   sync.Mutex
	ring [historyWindow]struct {
		at  int64
		d   digest
		set bool
	}
}

// agree records the first subscriber's digest for an epoch and compares
// every later subscriber's against it.
func (g *canonGroup) agree(at, epochMS int64, d digest) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := &g.ring[(at/epochMS)%historyWindow]
	if !e.set || e.at < at {
		e.at, e.d, e.set = at, d, true
		return true
	}
	return e.at != at || e.d.same(d)
}

// groupTable interns canonical keys to their history.
type groupTable struct {
	mu sync.Mutex
	m  map[string]*canonGroup
}

func (t *groupTable) get(canonical string) *canonGroup {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*canonGroup)
	}
	g := t.m[canonical]
	if g == nil {
		g = &canonGroup{}
		t.m[canonical] = g
	}
	return g
}

// subCheck is the per-subscription checker state.
type subCheck struct {
	ordinal uint64 // subscription's position in the run's fixed subscribe order
	meta    queryMeta
	group   *canonGroup
	lastSeq uint64
	lastAt  int64
}

// observe checks one result frame and returns its contribution to the
// run's result fingerprint: FNV-1a over (ordinal, seq, at_ms, values).
// Contributions are summed, so the fingerprint does not depend on how the
// readers interleave.
func (s *subCheck) observe(r *gateway.Response, f *failures) uint64 {
	if r.Seq != s.lastSeq+1 {
		f.seqGaps.Add(1)
	}
	s.lastSeq = r.Seq
	if r.AtMS <= s.lastAt && s.lastSeq > 1 {
		f.atOrder.Add(1)
	}
	s.lastAt = r.AtMS
	if s.meta.epochMS > 0 && r.AtMS%s.meta.epochMS != 0 {
		f.atEpoch.Add(1)
	}
	d := digestOf(r)
	if s.group != nil && s.meta.epochMS > 0 && !s.group.agree(r.AtMS, s.meta.epochMS, d) {
		f.diverged.Add(1)
	}
	if s.meta.region > 0 {
		checkRegionAgg(r, s.meta.region, f)
	}
	return fnvU64(fnvU64(fnvU64(fnvOffset, s.ordinal), r.Seq), d.exact)
}

// checkRegionAgg holds a SUM/COUNT/AVG region aggregate frame to the
// identities the recombination tiers must preserve.
func checkRegionAgg(r *gateway.Response, region int, f *failures) {
	var sum, cnt, avg float64
	var haveSum, haveCnt, haveAvg bool
	for i := range r.Aggs {
		a := &r.Aggs[i]
		if a.Empty || len(a.Agg) < 3 {
			continue
		}
		switch a.Agg[:3] {
		case "SUM":
			sum, haveSum = a.Value, true
		case "COU":
			cnt, haveCnt = a.Value, true
		case "AVG":
			avg, haveAvg = a.Value, true
		}
	}
	if haveCnt && cnt > float64(region) {
		f.countBound.Add(1)
	}
	if haveSum && haveCnt && haveAvg {
		if diff := math.Abs(avg*cnt - sum); diff > 1e-6*math.Max(1, math.Abs(sum)) {
			f.aggIdentity.Add(1)
		}
	}
}
