package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/tracing"
)

// DefaultReadTimeout is the default per-read deadline on client
// connections. It is deliberately several heartbeat intervals long.
const DefaultReadTimeout = 75 * time.Second

// DefaultWriteTimeout is the default per-write deadline: a slow-loris
// subscriber that stops reading long enough to fill its socket buffers
// is dropped instead of wedging its forwarder goroutines.
const DefaultWriteTimeout = 30 * time.Second

// ServerConfig parametrizes Serve.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. ":7443" or "127.0.0.1:0".
	Addr string
	// TickEvery is the wall-clock pacer period: every tick the server
	// commits staged client commands and advances the simulation by
	// Quantum of virtual time. Default 250ms.
	TickEvery time.Duration
	// Quantum is the virtual time simulated per tick. Default 2048ms (one
	// minimum epoch), i.e. the simulation runs ~8x faster than real time
	// at the defaults.
	Quantum time.Duration
	// ReadTimeout is the server-side read deadline, refreshed before every
	// request line: a connection that stays silent longer is dropped (its
	// named session detaches and stays resumable until the idle reaper
	// runs). Clients keep quiet periods alive with OpPing heartbeats.
	// DefaultReadTimeout if zero; negative disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout is the server-side write deadline, armed before every
	// response write: a client that stops reading (slow loris) fills its
	// socket buffers, the write expires, and the connection drops — its
	// named session detaches and its subscriptions park in resume rings
	// rather than wedging forwarder goroutines. DefaultWriteTimeout if
	// zero; negative disables the deadline.
	WriteTimeout time.Duration
	// ForceJSON pins every response to the NDJSON encoding, ignoring binary
	// wire negotiation (Request.Wire and binary-framed requests). Debug
	// mode: the stream stays readable with nc/jq at the cost of the
	// hot-path allocation savings. Inbound binary frames are still decoded.
	ForceJSON bool
}

// Server serves the gateway's newline-delimited JSON protocol over TCP and
// drives the simulation with a wall-clock pacer. It fronts any Backend —
// a single *Gateway or a federation router.
type Server struct {
	gw  Backend
	ln  net.Listener
	cfg ServerConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu       sync.Mutex
	nextConn int64
	conns    map[net.Conn]struct{}
}

// NewServer starts listening and pacing. The caller owns the backend and
// should Close it after Server.Close.
func NewServer(gw Backend, cfg ServerConfig) (*Server, error) {
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 250 * time.Millisecond
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 2048 * time.Millisecond
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultReadTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{gw: gw, ln: ln, cfg: cfg, stop: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.wg.Add(2)
	go s.pace()
	go s.accept()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the pacer and listener, severs live connections, and waits
// for the handlers to finish. It does not close the Gateway.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// pace drives virtual time: one Advance per wall tick. Client commands
// that arrived since the previous tick commit at the next one, so a
// subscribe observed over TCP is live within TickEvery.
//
// When the backend's brownout ladder reaches LevelBatching, the pacer
// coalesces pairs of ticks into one double-quantum Advance: virtual time
// progresses at the same rate, but each fan-out round carries twice the
// epochs, so the per-burst flush batching amortizes twice as many writes
// per syscall while the tier is hot.
func (s *Server) pace() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.TickEvery)
	defer t.Stop()
	owe := false // a tick was skipped; the next Advance is double
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			q := s.cfg.Quantum
			switch {
			case owe:
				owe = false
				q = 2 * s.cfg.Quantum
			case s.gw.BrownoutLevel() >= resilience.LevelBatching:
				owe = true
				continue
			}
			if _, err := s.gw.Advance(q); err != nil {
				return
			}
		}
	}
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// connWriter serializes responses from the request handler and the
// per-subscription forwarders onto one connection. All encodings go
// through one per-connection bufio.Writer — a response is built into a
// pooled frame buffer (binary) or the encoder's internal buffer (JSON),
// copied into the buffered writer and flushed once, so the steady-state
// fan-out path performs zero allocations and one syscall per response
// instead of allocating an encoder buffer each time.
type connWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder // writes through bw
	binary bool          // outbound framing: binary frames vs NDJSON
	// dl arms the write deadline before each write when the underlying
	// writer is a real connection and timeout is positive; a stalled
	// reader then errors the write instead of wedging the forwarders.
	dl      writeDeadliner
	timeout time.Duration
}

// writeDeadliner is the slice of net.Conn the write-timeout path needs;
// non-socket writers (benchmarks) simply don't implement it.
type writeDeadliner interface{ SetWriteDeadline(time.Time) error }

func newConnWriter(conn io.Writer) *connWriter {
	bw := bufio.NewWriterSize(conn, 32*1024)
	w := &connWriter{bw: bw, enc: json.NewEncoder(bw)}
	if d, ok := conn.(writeDeadliner); ok {
		w.dl = d
	}
	return w
}

// arm refreshes the write deadline; callers hold w.mu.
func (w *connWriter) arm() {
	if w.dl != nil && w.timeout > 0 {
		_ = w.dl.SetWriteDeadline(time.Now().Add(w.timeout))
	}
}

// setBinary switches outbound framing to binary frames; responses written
// before the switch were NDJSON, which the client-side reader detects per
// frame, so the transition point needs no synchronization with the peer.
func (w *connWriter) setBinary() {
	w.mu.Lock()
	w.binary = true
	w.mu.Unlock()
}

func (w *connWriter) write(r Response) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arm()
	if w.binary {
		bp := getFrameBuf()
		b, err := appendResponseFrame(*bp, &r)
		if err != nil {
			putFrameBuf(bp)
			return err
		}
		*bp = b
		_, err = w.bw.Write(sealFrame(b))
		putFrameBuf(bp)
		if err != nil {
			return err
		}
		return w.bw.Flush()
	}
	if err := w.enc.Encode(r); err != nil {
		return err
	}
	return w.bw.Flush()
}

// writeUpdate is the fan-out hot path: in binary mode the update encodes
// straight from its simulation form into a pooled buffer — no intermediate
// Response, no string-keyed maps, no per-message allocation.
func (w *connWriter) writeUpdate(u *Update) error {
	if err := w.writeUpdateBuffered(u); err != nil {
		return err
	}
	return w.flush()
}

// writeUpdateBuffered stages one update in the connection's write buffer
// without flushing, so a same-round burst of updates costs one syscall
// when the caller flushes once at the end of the burst.
func (w *connWriter) writeUpdateBuffered(u *Update) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arm()
	if w.binary {
		bp := getFrameBuf()
		b := appendUpdateFrame(*bp, u)
		*bp = b
		_, err := w.bw.Write(sealFrame(b))
		putFrameBuf(bp)
		return err
	}
	return w.enc.Encode(wireUpdate(*u))
}

// flush drains the write buffer to the connection.
func (w *connWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arm()
	return w.bw.Flush()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	s.mu.Lock()
	s.nextConn++
	id := s.nextConn
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	w := newConnWriter(conn)
	w.timeout = s.cfg.WriteTimeout
	// The reader's buffer bounds a JSON request line the way the old
	// Scanner cap did; binary frames are bounded by maxFramePayload.
	br := bufio.NewReaderSize(conn, 1<<20)
	var scratch []byte // reused binary frame payload buffer

	var sess ServerSession
	// named tracks whether the client claimed the session with an explicit
	// hello: named sessions detach (stay resumable) on disconnect, while
	// anonymous auto-registered ones are torn down.
	var named bool
	// ensure registers lazily so a HELLO can pick the session name first.
	ensure := func(name string) error {
		if sess != nil {
			return nil
		}
		if name == "" {
			name = fmt.Sprintf("conn-%d", id)
		}
		var err error
		sess, err = s.gw.RegisterSession(name)
		return err
	}
	defer func() {
		if sess == nil {
			return
		}
		if named {
			// Keep the session resumable: updates park in the resume rings
			// until the client re-attaches or the idle reaper collects it.
			_ = sess.Detach()
			return
		}
		// Tear the session down at the next tick; the forwarders end
		// when their subscriptions close.
		_ = sess.CloseAsync()
	}()

	// forward pumps one subscription's updates to the connection until it
	// closes, then reports the reason. An Advance delivers a whole round of
	// epochs at once, so the ready burst is staged into the write buffer
	// and flushed with one syscall instead of one per message.
	forward := func(sub ServerSub) {
		defer s.wg.Done()
		ch := sub.Updates()
		for u := range ch {
			for more := true; more; {
				if w.writeUpdateBuffered(&u) != nil {
					conn.Close()
					return
				}
				select {
				case next, ok := <-ch:
					if !ok {
						more = false
					} else {
						u = next
					}
				default:
					more = false
				}
			}
			if w.flush() != nil {
				conn.Close()
				return
			}
		}
		// The closed notice must reach the client or the connection is
		// useless: an evicted slow consumer whose socket is already full
		// times this write out too, and leaving the conn open would park
		// the client on a silent stream until the read timeout. Sever it.
		if w.write(Response{Type: TypeClosed, Sub: sub.ID(), Reason: sub.Reason().String()}) != nil {
			conn.Close()
		}
	}

	for {
		// Refresh the read deadline per request; a silent client is cut
		// loose (and, if named, left resumable) instead of pinning a
		// handler goroutine forever.
		if s.cfg.ReadTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		// Auto-detect framing per request: a FrameMagic first byte is a
		// binary frame, anything else is a JSON line. The two interleave
		// freely on one connection.
		first, err := br.ReadByte()
		if err != nil {
			return
		}
		var req Request
		if first == FrameMagic {
			scratch, err = readBinaryFrame(br, scratch)
			if err != nil {
				return
			}
			req, err = decodeRequestPayload(scratch)
			if err != nil {
				_ = w.write(Response{Type: TypeError, Error: fmt.Sprintf("bad request: %v", err)})
				continue
			}
			// A binary-speaking client reads binary; answer in kind unless
			// the operator pinned JSON for debugging.
			if !s.cfg.ForceJSON {
				w.setBinary()
			}
		} else {
			if first == '\n' {
				continue
			}
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			// Rebuild the full line: the first byte was consumed by the
			// framing peek. json.Unmarshal needs it back in place, so keep
			// a tiny prefix copy rather than a whole-line copy.
			full := append(append(scratch[:0], first), line...)
			scratch = full
			if err := json.Unmarshal(full, &req); err != nil {
				_ = w.write(Response{Type: TypeError, Error: fmt.Sprintf("bad request: %v", err)})
				continue
			}
		}
		fail := func(err error) {
			r := Response{Type: TypeError, Tag: req.Tag, Error: err.Error()}
			// Overload rejections are typed on the wire: the client's
			// retry policy keys on the code and the retry-after floor.
			if errors.Is(err, resilience.ErrOverloaded) {
				r.Code = CodeOverloaded
				r.RetryAfterMS = resilience.RetryAfterHint(err).Milliseconds()
			}
			_ = w.write(r)
		}
		switch req.Op {
		case OpHello:
			// Wire negotiation: the hello response goes out in the current
			// encoding (JSON for a JSON-speaking client — the handshake
			// stays human-readable), then the stream switches.
			upgrade := req.Wire == "binary" && !s.cfg.ForceJSON
			if req.Token != "" {
				// Re-attach: claim a detached session by name + token and
				// report the resumable streams with their cursors.
				if sess != nil {
					fail(fmt.Errorf("connection already has session %q", sess.Name()))
					continue
				}
				se, infos, err := s.gw.AttachSession(req.Client, req.Token)
				if err != nil {
					fail(err)
					continue
				}
				sess, named = se, true
				subs := make([]WireResumeInfo, 0, len(infos))
				for _, in := range infos {
					subs = append(subs, WireResumeInfo{
						Sub:       in.ID,
						QueryID:   in.QueryID,
						Canonical: in.Key,
						LastSeq:   in.LastSeq,
					})
				}
				_ = w.write(Response{Type: TypeHello, Tag: req.Tag, Session: sess.Name(), Token: sess.Token(), Subs: subs})
				if upgrade {
					w.setBinary()
				}
				continue
			}
			if err := ensure(req.Client); err != nil {
				fail(err)
				continue
			}
			named = true
			_ = w.write(Response{Type: TypeHello, Tag: req.Tag, Session: sess.Name(), Token: sess.Token()})
			if upgrade {
				w.setBinary()
			}
		case OpResume:
			if sess == nil {
				fail(fmt.Errorf("no session"))
				continue
			}
			sub, err := sess.Resume(req.Sub, req.After)
			if err != nil {
				fail(err)
				continue
			}
			s.wg.Add(1)
			go forward(sub)
			_ = w.write(Response{
				Type:      TypeSubscribed,
				Tag:       req.Tag,
				Sub:       sub.ID(),
				QueryID:   sub.QueryID(),
				Shared:    sub.Shared(),
				Canonical: sub.Key(),
				Resumed:   true,
				TraceID:   sub.TraceID(),
			})
		case OpPing:
			_ = w.write(Response{Type: TypePong, Tag: req.Tag})
		case OpSubscribe:
			// At the ladder's shed rung, reject before even staging: the
			// mailbox is the resource brownout protects.
			if s.gw.BrownoutLevel() >= resilience.LevelShed {
				fail(&resilience.OverloadError{RetryAfter: DefaultShedRetryAfter, Reason: "brownout"})
				continue
			}
			if err := ensure(""); err != nil {
				fail(err)
				continue
			}
			q, err := query.Parse(req.Query)
			if err != nil {
				fail(err)
				continue
			}
			// Deadline and trace ride down the tier chain together.
			sub, err := sess.Subscribe(SubscribeRequest{
				Query:  q,
				Budget: time.Duration(req.DeadlineMS) * time.Millisecond,
				Trace:  tracing.Context{Trace: req.TraceID},
			})
			if err != nil {
				fail(err)
				continue
			}
			s.wg.Add(1)
			go forward(sub)
			_ = w.write(Response{
				Type:      TypeSubscribed,
				Tag:       req.Tag,
				Sub:       sub.ID(),
				QueryID:   sub.QueryID(),
				Shared:    sub.Shared(),
				Canonical: sub.Key(),
				TraceID:   sub.TraceID(),
			})
		case OpUnsubscribe:
			if sess == nil {
				fail(fmt.Errorf("no session"))
				continue
			}
			if err := sess.Unsubscribe(req.Sub); err != nil {
				fail(err)
				continue
			}
			// The forwarder emits the TypeClosed line when the channel
			// drains; nothing more to say here.
		case OpStats:
			st, now, err := s.gw.ServeStats()
			if err != nil {
				fail(err)
				continue
			}
			gm := st.Metrics()
			_ = w.write(Response{
				Type:  TypeStats,
				Tag:   req.Tag,
				AtMS:  time.Duration(now).Milliseconds(),
				Stats: &gm,
			})
		default:
			fail(fmt.Errorf("unknown op %q", req.Op))
		}
	}
}
