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
	"repro/internal/sim"
	"repro/internal/tracing"
)

// DefaultReadTimeout is the default per-read deadline on client
// connections. It is deliberately several heartbeat intervals long.
const DefaultReadTimeout = 75 * time.Second

// DefaultWriteTimeout is the default per-write deadline: a slow-loris
// subscriber that stops reading long enough to fill its socket buffers
// is dropped instead of wedging its connection writer.
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
	// socket write: a client that stops reading (slow loris) fills its
	// socket buffers, the write expires, and the connection drops — its
	// named session detaches and its subscriptions park in resume rings
	// rather than wedging the connection's writer. DefaultWriteTimeout if
	// zero; negative disables the deadline.
	WriteTimeout time.Duration
}

// Server serves the gateway's wire protocol over TCP — binary frames to a
// client that negotiates them, newline-delimited JSON to one that does not —
// and drives the simulation with a wall-clock pacer. It fronts any Backend —
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
// epochs, so each connection's one flush per round carries twice as many
// frames per syscall while the tier is hot.
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

// connWriter is the one write side of a connection. The request handler
// only stages control responses into it; the connection's single writer
// goroutine pumps every subscription stream through it and does the
// flushing. All encodings stage into one bufio.Writer, so a round of
// results — however many subscriptions it touches — costs one wake-up and
// one socket write, and the steady-state fan-out path allocates nothing.
type connWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder // writes through bw
	binary bool          // outbound framing: binary frames vs NDJSON
	// streams are the subscriptions this connection delivers, each
	// registered only after its subscribed reply was staged.
	streams []stream
	// kick asks the writer goroutine to flush what the handler staged.
	kick Signal

	// The body of an update frame (timestamp, degraded/coverage, rows or
	// aggregates) is the same for every subscriber of a query, so between
	// two flushes each distinct payload is encoded once into arena: bodies
	// maps its identity to its entry in shared. head and tail are the
	// per-subscriber scratch.
	bodies     map[bodyKey]int
	shared     []body
	arena      []byte
	head, tail []byte
	// queue is what a pump drained, in order, until it is staged; slots
	// counts the connection slots the pump has kept bodies in.
	queue []queued
	slots int
}

// body is one distinct update payload of the current flush.
type body struct {
	start, end int // [start, end) in arena; end is 0 until it is encoded
	queued     int // frames in the pump's queue that carry it
	slot       int // the connection slot it is kept in this pump, or -1
}

// queued is one frame a pump drained: an update, whose body is
// shared[body] on a binary connection, or a stream's closed notice.
type queued struct {
	u      Update
	body   int
	closed *Subscription
}

// stream is one subscription the connection delivers: batch is what its
// last take returned, recycled by the next, and live whether the stream was
// still open then.
type stream struct {
	sub   *Subscription
	batch []Update
	live  bool
}

// take swaps out every stream's buffer under one hold of the stream lock.
// The streams are all the connection's one session's.
func take(streams []stream) {
	if len(streams) == 0 {
		return
	}
	streams[0].sub.Session().Read(func() {
		for i := range streams {
			st := &streams[i]
			st.batch, st.live = st.sub.Take(st.batch)
		}
	})
}

// bodyKey is the exact identity of an update's shared payload. The backing
// pointers matter: a cache replay can carry the same (QueryID, At) as the
// live epoch yet differ from it in the last ulp, and holding the pointers
// keeps the arrays alive, so an address cannot be reused under a live key.
type bodyKey struct {
	qid          query.ID
	at           sim.Time
	rows         *query.Row
	aggs         *query.AggResult
	nrows, naggs int
	agg          bool
	degraded     bool
	coverage     float64
}

// deadlineWriter arms the write deadline where the socket write happens —
// once per flushed buffer, not once per staged frame — so a stalled reader
// errors the write instead of wedging the connection's writer.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d deadlineWriter) Write(p []byte) (int, error) {
	if d.timeout > 0 {
		_ = d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
	}
	return d.conn.Write(p)
}

func newConnWriter(conn io.Writer) *connWriter {
	bw := bufio.NewWriterSize(conn, 32*1024)
	return &connWriter{bw: bw, enc: json.NewEncoder(bw), kick: make(Signal, 1), bodies: make(map[bodyKey]int)}
}

// setBinary switches outbound framing to binary frames; responses written
// before the switch were NDJSON, which the client-side reader detects per
// frame, so the transition point needs no synchronization with the peer.
func (w *connWriter) setBinary() {
	w.mu.Lock()
	w.binary = true
	w.mu.Unlock()
}

// write stages one control response and asks the writer to flush it.
func (w *connWriter) write(r Response) error {
	w.mu.Lock()
	err := w.stageResponse(&r)
	w.mu.Unlock()
	w.kick.Raise()
	return err
}

// open stages a stream's subscribed reply, then whatever the stream already
// holds (a resumed tail, a cache replay) as whole frames, and registers it,
// all under one lock: on the wire the ack precedes the stream's first
// frame. A stream whose ack could not be staged is not registered; the
// caller severs the connection, and the session's teardown collects the
// stream.
func (w *connWriter) open(ack Response, sub *Subscription) error {
	w.mu.Lock()
	err := w.stageResponse(&ack)
	if err == nil {
		n := len(w.streams)
		w.streams = append(w.streams, stream{sub: sub})
		take(w.streams[n:])
		if !w.drain(&w.streams[n]) {
			w.streams = w.streams[:n]
		}
		w.stageQueue(false)
	}
	w.mu.Unlock()
	w.kick.Raise()
	return err
}

// sync flushes what the handler staged.
func (w *connWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flush()
}

// pump takes every stream and sends what it took.
func (w *connWriter) pump() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	take(w.streams)
	return w.send()
}

// send drains what every stream's last take returned into the queue (a
// stream that ended leaves its closed notice after its last frame and is
// dropped), stages the queue and flushes once; callers hold w.mu.
func (w *connWriter) send() error {
	live := w.streams[:0]
	for i := range w.streams {
		if w.drain(&w.streams[i]) {
			live = append(live, w.streams[i])
		}
	}
	clear(w.streams[len(live):])
	w.streams = live
	w.stageQueue(true)
	return w.flush()
}

// drain queues what st's last take returned, then its closed notice if it
// has ended, and reports whether st is still open. On a binary connection
// each queued update's body is looked up here, once, and counted.
func (w *connWriter) drain(st *stream) bool {
	for i := range st.batch {
		w.queue = append(w.queue, queued{u: st.batch[i], body: -1})
		if q := &w.queue[len(w.queue)-1]; w.binary {
			q.body = w.bodyOf(&q.u)
			w.shared[q.body].queued++
		}
	}
	clear(st.batch) // the queue holds the rows until it is staged
	if !st.live {
		w.queue = append(w.queue, queued{body: -1, closed: st.sub})
	}
	return st.live
}

// stageQueue stages the queue in order and empties it. With share set (the
// pump), a body that two or more queued frames carry goes out once, in a
// keep frame that assigns it the next connection slot while one is free,
// and every later frame carrying it is a ref to that slot. Every other
// frame goes whole, as stage would send it.
func (w *connWriter) stageQueue(share bool) {
	for i := range w.queue {
		q := &w.queue[i]
		switch {
		case q.closed != nil:
			_ = w.stageClosed(q.closed)
		case q.body < 0:
			_ = w.stage(&q.u)
		default:
			b := &w.shared[q.body]
			how := shareNone
			switch {
			case b.slot >= 0:
				how = shareRef
			case share && b.queued > 1 && w.slots < keptSlots:
				how, b.slot = shareKeep, w.slots
				w.slots++
			}
			b.queued--
			_ = w.stageUpdate(&q.u, q.body, how)
		}
	}
	clear(w.queue)
	w.queue = w.queue[:0]
}

// stageResponse stages one control response; callers hold w.mu.
func (w *connWriter) stageResponse(r *Response) error {
	if !w.binary {
		return w.enc.Encode(r)
	}
	bp := getFrameBuf()
	b, err := appendResponseFrame(*bp, r)
	if err == nil {
		*bp = b
		_, err = w.bw.Write(sealFrame(b))
	}
	putFrameBuf(bp)
	return err
}

// stageClosed stages sub's closed notice; callers hold w.mu.
func (w *connWriter) stageClosed(sub *Subscription) error {
	return w.stageResponse(&Response{Type: TypeClosed, Sub: sub.ID(), Reason: sub.Reason().String()})
}

// stage stages one update as a whole frame; callers hold w.mu. In binary
// mode the frame is emitted as per-subscriber head, cached body, optional
// trace trailer — byte for byte what appendUpdateFrame produces — straight
// from the update's simulation form: no intermediate Response, no
// string-keyed maps, no per-message allocation.
func (w *connWriter) stage(u *Update) error {
	if !w.binary {
		return w.enc.Encode(wireUpdate(*u))
	}
	return w.stageUpdate(u, w.bodyOf(u), shareNone)
}

// bodyOf returns the index in shared of u's body, adding it on first sight.
func (w *connWriter) bodyOf(u *Update) int {
	k := bodyKey{qid: u.QueryID, at: u.At, nrows: len(u.Rows), naggs: len(u.Aggs), agg: aggUpdate(u),
		degraded: u.Degraded, coverage: u.Coverage}
	if len(u.Rows) > 0 {
		k.rows = &u.Rows[0]
	}
	if len(u.Aggs) > 0 {
		k.aggs = &u.Aggs[0]
	}
	i, ok := w.bodies[k]
	if !ok {
		i = len(w.shared)
		w.shared = append(w.shared, body{slot: -1})
		w.bodies[k] = i
	}
	return i
}

// stageUpdate stages u's frame, whose body is shared[i], as a whole, keep
// or ref frame; callers hold w.mu.
func (w *connWriter) stageUpdate(u *Update, i int, share frameShare) error {
	b := &w.shared[i]
	var body []byte
	if share != shareRef {
		if b.end == 0 {
			b.start = len(w.arena)
			w.arena = appendUpdateBody(w.arena, u)
			b.end = len(w.arena)
		}
		body = w.arena[b.start:b.end]
	}
	w.tail = w.tail[:0]
	if u.Trace != 0 {
		w.tail = appendProvTrailer(w.tail, u.Trace, u.Prov)
	}
	w.head = appendUpdateHead(w.head[:0], u, share, b.slot)
	_, _ = w.bw.Write(sealFrameHead(w.head, len(body)+len(w.tail)))
	_, _ = w.bw.Write(body)
	_, err := w.bw.Write(w.tail) // bw's error is sticky: the last one tells
	return err
}

// flush drains the write buffer to the connection and ends the lifetime of
// the cached bodies and of the pump's slots; callers hold w.mu.
func (w *connWriter) flush() error {
	clear(w.bodies)
	w.shared = w.shared[:0]
	w.arena = w.arena[:0]
	w.slots = 0
	return w.bw.Flush()
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()

	s.mu.Lock()
	s.nextConn++
	id := s.nextConn
	s.conns[conn] = struct{}{}
	s.mu.Unlock()

	w := newConnWriter(deadlineWriter{conn, s.cfg.WriteTimeout})
	// The reader's buffer bounds a JSON request line the way the old
	// Scanner cap did; binary frames are bounded by maxFramePayload.
	br := bufio.NewReaderSize(conn, 1<<20)
	var scratch []byte // reused binary frame payload buffer

	var sess *Session
	// named tracks whether the client claimed the session with an explicit
	// hello: named sessions detach (stay resumable) on disconnect, while
	// anonymous auto-registered ones are torn down.
	var named bool
	// The connection's one writer goroutine: it flushes what the handler
	// staged when kicked and, once the connection's one session is bound,
	// wakes on its ready signal and pumps every stream. A failed write severs
	// the connection — a client whose socket is full must not sit on a
	// silent stream until the read timeout.
	done := make(chan struct{})
	bound := make(chan (<-chan struct{}), 1)
	bind := func(se *Session) { sess = se; bound <- se.Ready() }
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		var ready <-chan struct{} // nil until the session is bound
		for {
			var err error
			select {
			case ready = <-bound:
			case <-ready:
				err = w.pump()
			case <-w.kick:
				err = w.sync()
			case <-done:
				// A reply staged just before the read side ended still goes
				// out, under the write deadline like any other write.
				_ = w.sync()
				return
			}
			if err != nil {
				conn.Close()
				return
			}
		}
	}()
	// ensure registers lazily so a HELLO can pick the session name first.
	ensure := func(name string) error {
		if sess != nil {
			return nil
		}
		if name == "" {
			name = fmt.Sprintf("conn-%d", id)
		}
		se, err := s.gw.Register(name)
		if err == nil {
			bind(se)
		}
		return err
	}
	defer func() {
		// Stop the writer — its last act is to flush what is staged — before
		// releasing the session, so a re-attach on another connection never
		// shares the ready signal with this one, and a stream resumed there
		// has one reader: this writer never takes from it again.
		close(done)
		writer.Wait()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if sess == nil {
			return
		}
		if named {
			// Keep the session resumable: updates park in the resume rings
			// until the client re-attaches or the idle reaper collects it.
			_ = sess.Detach()
			return
		}
		// Tear the session down at the next tick.
		_ = sess.CloseAsync()
	}()

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
			// A binary-speaking client reads binary; answer in kind.
			w.setBinary()
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
			upgrade := req.Wire == "binary"
			if req.Token != "" {
				// Re-attach: claim a detached session by name + token and
				// report the resumable streams with their cursors.
				if sess != nil {
					fail(fmt.Errorf("connection already has session %q", sess.Name()))
					continue
				}
				se, infos, err := s.gw.Attach(req.Client, req.Token)
				if err != nil {
					fail(err)
					continue
				}
				bind(se)
				named = true
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
			if w.open(subscribed(req.Tag, sub, true), sub) != nil {
				return
			}
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
			if w.open(subscribed(req.Tag, sub, false), sub) != nil {
				return
			}
		case OpUnsubscribe:
			if sess == nil {
				fail(fmt.Errorf("no session"))
				continue
			}
			if err := sess.Unsubscribe(req.Sub); err != nil {
				fail(err)
				continue
			}
			// The writer emits the TypeClosed line when it takes the
			// stream's close; nothing more to say here.
		case OpStats:
			st, now, err := s.gw.ServeStats()
			if err != nil {
				fail(err)
				continue
			}
			_ = w.write(Response{
				Type:  TypeStats,
				Tag:   req.Tag,
				AtMS:  time.Duration(now).Milliseconds(),
				Stats: st.Metrics(),
			})
		default:
			fail(fmt.Errorf("unknown op %q", req.Op))
		}
	}
}

// subscribed is the ack of a new or resumed stream.
func subscribed(tag string, sub *Subscription, resumed bool) Response {
	return Response{
		Type:      TypeSubscribed,
		Tag:       tag,
		Sub:       sub.ID(),
		QueryID:   sub.QueryID(),
		Shared:    sub.Shared(),
		Canonical: sub.Key(),
		Resumed:   resumed,
		TraceID:   sub.TraceID(),
	}
}
