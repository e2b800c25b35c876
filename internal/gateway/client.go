package gateway

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/resilience"
)

// Client is a TCP client for the serving protocol, speaking either wire
// encoding. The handshake is always JSON; with ClientConfig.Binary set the
// client requests the binary framing in its hello and encodes every
// subsequent request as a binary frame. The read side auto-detects the
// server's framing per frame, so the JSON→binary transition needs no
// coordination.
//
// The Rows and Aggs of a decoded response are read-only: the subscribers of
// one query on a connection share one decoded body per epoch (the server's
// keep and ref frames), so responses may hold the same slices and maps.
//
// Client is not safe for concurrent use: it is a protocol endpoint for
// tests, the chaos drills and ad-hoc tooling, not a connection pool.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	enc     *json.Encoder
	binary  bool
	scratch []byte
	timeout time.Duration
	// kept holds the bodies the server's keep frames assigned to slots;
	// its ref frames name them.
	kept keptTable
}

// ClientConfig parametrizes Dial.
type ClientConfig struct {
	// Binary requests the binary wire encoding; the zero value speaks
	// NDJSON.
	Binary bool
	// Timeout bounds each Send/Recv; 0 means no deadline.
	Timeout time.Duration
}

// Dial connects to a serving-tier address.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(conn, 32*1024)
	return &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 1<<20),
		bw:      bw,
		enc:     json.NewEncoder(bw),
		binary:  cfg.Binary,
		timeout: cfg.Timeout,
	}, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Hello performs the session handshake (JSON both ways) and negotiates the
// configured wire encoding for everything after it. A non-empty token
// re-attaches a detached session.
func (c *Client) Hello(client, token string) (Response, error) {
	req := Request{Op: OpHello, Client: client, Token: token}
	if c.binary {
		req.Wire = "binary"
	}
	// The hello itself always goes out as JSON: the handshake stays
	// debuggable and a pre-binary server still understands it.
	if err := c.deadline(); err != nil {
		return Response{}, err
	}
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Response{}, err
	}
	resp, err := c.Recv()
	if err != nil {
		return Response{}, err
	}
	if resp.Type == TypeError {
		return resp, fmt.Errorf("gateway: hello: %s", resp.Error)
	}
	return resp, nil
}

// Send writes one request in the negotiated encoding.
func (c *Client) Send(req Request) error {
	if err := c.deadline(); err != nil {
		return err
	}
	if c.binary {
		bp := getFrameBuf()
		b, err := appendRequestFrame(*bp, &req)
		if err != nil {
			putFrameBuf(bp)
			return err
		}
		*bp = b
		_, err = c.bw.Write(sealFrame(b))
		putFrameBuf(bp)
		if err != nil {
			return err
		}
		return c.bw.Flush()
	}
	if err := c.enc.Encode(req); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ErrPingTimeout marks a Recv that failed because the configured
// read deadline expired — the server went quiet past the client's
// heartbeat window. Retry policy treats it as a reconnect-and-resume
// signal, distinct from protocol errors (which are not retried).
var ErrPingTimeout = errors.New("gateway: ping timeout")

// wrapRead types a read-side failure: deadline expiry becomes
// ErrPingTimeout (matchable with errors.Is), everything else passes
// through untouched.
func wrapRead(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrPingTimeout, err)
	}
	return err
}

// Recv reads the next response, auto-detecting its framing. A read that
// dies on the configured deadline returns an error matching
// ErrPingTimeout. A ref frame's response shares its Rows or Aggs with the
// keep frame's before it; treat them as read-only.
func (c *Client) Recv() (Response, error) {
	if err := c.deadline(); err != nil {
		return Response{}, err
	}
	first, err := c.br.ReadByte()
	if err != nil {
		return Response{}, wrapRead(err)
	}
	if first == FrameMagic {
		c.scratch, err = readBinaryFrame(c.br, c.scratch)
		if err != nil {
			return Response{}, wrapRead(err)
		}
		return decodeResponse(c.scratch, &c.kept)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return Response{}, wrapRead(err)
	}
	c.scratch = append(append(c.scratch[:0], first), line...)
	var resp Response
	if err := json.Unmarshal(c.scratch, &resp); err != nil {
		return Response{}, fmt.Errorf("gateway: bad response line: %w", err)
	}
	return resp, nil
}

// RecvType reads responses until one of the wanted type arrives, skipping
// interleaved stream frames; a TypeError response surfaces as an error.
func (c *Client) RecvType(want string) (Response, error) {
	for {
		resp, err := c.Recv()
		if err != nil {
			return Response{}, err
		}
		if resp.Type == want {
			return resp, nil
		}
		if resp.Type == TypeError {
			return resp, fmt.Errorf("gateway: server error while waiting for %q: %s", want, resp.Error)
		}
	}
}

func (c *Client) deadline() error {
	if c.timeout <= 0 {
		return nil
	}
	return c.conn.SetDeadline(time.Now().Add(c.timeout))
}

// OverloadFromResponse converts an "overloaded" TypeError response into
// its typed *resilience.OverloadError (carrying the server's retry-after
// floor); nil for any other response.
func OverloadFromResponse(resp Response) error {
	if resp.Type != TypeError || resp.Code != CodeOverloaded {
		return nil
	}
	return &resilience.OverloadError{
		RetryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond,
		Reason:     resp.Error,
	}
}

// RetryConfig parametrizes SubscribeRetry.
type RetryConfig struct {
	// Attempts bounds the subscribe tries (8 if <= 0).
	Attempts int
	// Backoff is the jittered delay policy between attempts; its zero
	// value uses the resilience defaults.
	Backoff resilience.Backoff
	// TraceID, when nonzero, pins the subscription's causal-trace identity
	// (rides the wire as trace_id); zero lets the server derive one, echoed
	// back on the TypeSubscribed response.
	TraceID uint64
	// Sleep replaces time.Sleep between attempts (tests inject a
	// recorder).
	Sleep func(time.Duration)
}

// SubscribeRetry subscribes with the client retry policy: an
// "overloaded" rejection backs off with capped exponential delay plus
// full jitter — floored by the server's retry-after hint — and re-issues
// the subscribe. The retry is idempotent: a shed subscribe was never
// applied, so re-subscribing cannot double-admit, and per-subscription
// Seq numbering keeps delivery exactly-once for consumers that dedup on
// it. Non-overload errors fail immediately.
func (c *Client) SubscribeRetry(queryText, tag string, rc RetryConfig) (Response, error) {
	attempts := rc.Attempts
	if attempts <= 0 {
		attempts = 8
	}
	sleep := rc.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := c.Send(Request{Op: OpSubscribe, Query: queryText, Tag: tag, TraceID: rc.TraceID}); err != nil {
			return Response{}, err
		}
		resp, err := c.recvTagged(tag)
		if err != nil {
			return Response{}, err
		}
		if resp.Type == TypeSubscribed {
			return resp, nil
		}
		oe := OverloadFromResponse(resp)
		if oe == nil {
			return resp, fmt.Errorf("gateway: subscribe: %s", resp.Error)
		}
		lastErr = oe
		sleep(rc.Backoff.Delay(attempt, resilience.RetryAfterHint(oe)))
	}
	return Response{}, fmt.Errorf("gateway: subscribe gave up after %d attempts: %w", attempts, lastErr)
}

// recvTagged reads until the tagged direct response (subscribed or
// error) arrives, dropping the stream frames that interleave with it
// (updates for this connection's other subscriptions).
func (c *Client) recvTagged(tag string) (Response, error) {
	for {
		resp, err := c.Recv()
		if err != nil {
			return Response{}, err
		}
		if (resp.Type == TypeSubscribed || resp.Type == TypeError) && resp.Tag == tag {
			return resp, nil
		}
	}
}
