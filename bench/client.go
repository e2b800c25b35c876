package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// sub is one subscription as the harness sees it. The driver fills the
// send-side fields before the request goes out; the connection's reader
// fills the rest, and the driver reads those only after waiting on acked
// (id, err) or after the readers have exited (everything else).
type sub struct {
	tag      string
	probe    bool
	sentAt   time.Time
	sentRnd  int64
	sentVirt int64 // virtual ms at send

	acked chan struct{} // closed when the ack or an error reply is read
	id    gateway.SubID
	err   string

	ackAt     time.Time
	ackRnd    int64
	firstAt   time.Time // first result frame read
	firstVirt int64     // its at_ms
	frames    int64
	// leaving is set by the driver before it sends the unsubscribe, so the
	// reader takes the `closed` frame as expected.
	leaving atomic.Bool

	check subCheck
}

// conn is one client connection: a gateway.Client whose Send side belongs
// to the driver goroutine and whose Recv side belongs to one reader
// goroutine. gateway.Client is documented single-goroutine, but with
// Timeout 0 Send touches only the write buffer and Recv only the read
// buffer, which is what lets a closed-loop driver pipeline requests
// against a continuously read stream.
type conn struct {
	c *gateway.Client
	r *runState

	mu      sync.Mutex
	pending map[string]*sub // by tag, until acked

	// Reader-owned.
	subs  map[gateway.SubID]*sub
	early map[gateway.SubID][]gateway.Response // frames that beat their ack
	all   []*sub                               // every acked sub, for the latency samples
	fp    uint64                               // this connection's share of the result fingerprint

	done chan struct{}
}

func dial(r *runState, addr, name string) (*conn, error) {
	c, err := gateway.Dial(addr, gateway.ClientConfig{Binary: true})
	if err != nil {
		return nil, err
	}
	if _, err := c.Hello(name, ""); err != nil {
		c.Close()
		return nil, err
	}
	cn := &conn{
		c: c, r: r,
		pending: make(map[string]*sub),
		subs:    make(map[gateway.SubID]*sub),
		early:   make(map[gateway.SubID][]gateway.Response),
		done:    make(chan struct{}),
	}
	go cn.read()
	return cn, nil
}

// subscribe sends one subscribe request; the reply arrives on the reader.
func (cn *conn) subscribe(s *sub, text string) error {
	cn.mu.Lock()
	cn.pending[s.tag] = s
	cn.mu.Unlock()
	s.sentAt = time.Now()
	return cn.c.Send(gateway.Request{Op: gateway.OpSubscribe, Query: text, Tag: s.tag})
}

// unsubscribe waits for the subscription's ack (it needs the id) and sends
// the unsubscribe.
func (cn *conn) unsubscribe(s *sub) error {
	<-s.acked
	if s.err != "" {
		return fmt.Errorf("subscription %s was refused: %s", s.tag, s.err)
	}
	s.leaving.Store(true)
	return cn.c.Send(gateway.Request{Op: gateway.OpUnsubscribe, Sub: s.id})
}

func (cn *conn) read() {
	defer close(cn.done)
	r := cn.r
	for {
		resp, err := cn.c.Recv()
		if err != nil {
			if !r.closing.Load() {
				r.fails.transport.Add(1)
			}
			return
		}
		switch resp.Type {
		case gateway.TypeRows, gateway.TypeAgg:
			s := cn.subs[resp.Sub]
			if s == nil {
				cn.early[resp.Sub] = append(cn.early[resp.Sub], resp)
				continue
			}
			cn.frame(s, &resp)
		case gateway.TypeSubscribed, gateway.TypeError:
			cn.mu.Lock()
			s := cn.pending[resp.Tag]
			delete(cn.pending, resp.Tag)
			cn.mu.Unlock()
			if s == nil {
				r.fails.errorReplies.Add(1) // an error with no request of ours behind it
				continue
			}
			s.ackAt, s.ackRnd = time.Now(), r.round.Load()
			if resp.Type == gateway.TypeError {
				s.err = resp.Error
				r.fails.errorReplies.Add(1)
				close(s.acked)
				continue
			}
			s.id = resp.Sub
			s.check.group = r.groups.get(resp.Canonical)
			cn.subs[s.id] = s
			cn.all = append(cn.all, s)
			close(s.acked)
			for i := range cn.early[s.id] {
				cn.frame(s, &cn.early[s.id][i])
			}
			delete(cn.early, s.id)
		case gateway.TypeClosed:
			s := cn.subs[resp.Sub]
			if (s == nil || !s.leaving.Load()) && !r.closing.Load() {
				r.fails.closed.Add(1)
			}
			delete(cn.subs, resp.Sub)
		}
	}
}

// frame accounts one result frame: checks, fingerprint, first-result stamp
// and the global delivered count the driver's in-flight window waits on.
func (cn *conn) frame(s *sub, resp *gateway.Response) {
	r := cn.r
	if s.frames == 0 {
		s.firstAt, s.firstVirt = time.Now(), resp.AtMS
	}
	s.frames++
	cn.fp += s.check.observe(resp, &r.fails)
	r.delivered()
}

// finish closes the socket (if teardown has not already severed it) and
// waits for the reader; frames that never found their subscription are
// failures.
func (cn *conn) finish() {
	cn.c.Close()
	<-cn.done
	for _, fs := range cn.early {
		cn.r.fails.stray.Add(int64(len(fs)))
	}
}
