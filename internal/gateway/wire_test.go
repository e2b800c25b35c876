package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"path/filepath"
	"testing"
	"time"
)

func newWireServer(t *testing.T, gw *Gateway, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.TickEvery == 0 {
		cfg.TickEvery = 5 * time.Millisecond
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 2048 * time.Millisecond
	}
	srv, err := NewServer(gw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// TestClientServerBinary drives the full TCP path over the binary codec:
// hello (JSON handshake), subscribe, result delivery, stats, unsubscribe
// and the closing handshake — the binary twin of TestServerRoundTrip.
func TestClientServerBinary(t *testing.T) {
	gw := newTestGateway(t, Config{})
	srv := newWireServer(t, gw, ServerConfig{})

	c, err := Dial(srv.Addr().String(), ClientConfig{Binary: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	hello, err := c.Hello("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	if hello.Session != "alice" || hello.Token == "" {
		t.Fatalf("hello response %+v", hello)
	}

	if err := c.Send(Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms", Tag: "s1"}); err != nil {
		t.Fatal(err)
	}
	subbed, err := c.RecvType(TypeSubscribed)
	if err != nil {
		t.Fatal(err)
	}
	if subbed.Sub == 0 || subbed.QueryID == 0 || subbed.Canonical == "" {
		t.Fatalf("subscribed response %+v", subbed)
	}

	rows, err := c.RecvType(TypeRows)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Sub != subbed.Sub || len(rows.Rows) == 0 {
		t.Fatalf("rows response %+v", rows)
	}
	for _, row := range rows.Rows {
		if _, ok := row.Values["light"]; !ok {
			t.Fatalf("row missing selected attribute: %+v", row)
		}
	}

	if err := c.Send(Request{Op: OpStats, Tag: "st"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.RecvType(TypeStats)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats == nil || st.Stats.Admitted != 1 || st.Stats.ActiveSessions != 1 {
		t.Fatalf("stats response %+v", st.Stats)
	}

	if err := c.Send(Request{Op: OpUnsubscribe, Sub: subbed.Sub}); err != nil {
		t.Fatal(err)
	}
	closed, err := c.RecvType(TypeClosed)
	if err != nil {
		t.Fatal(err)
	}
	if closed.Sub != subbed.Sub || closed.Reason != ReasonUnsubscribed.String() {
		t.Fatalf("closed response %+v", closed)
	}
}

// TestWireHandshakeCompat pins the negotiation contract at the byte level:
// the hello request and response are JSON in both directions (so any
// pre-binary tool can complete a handshake), and the very next response
// after a Wire:"binary" hello is a binary frame.
func TestWireHandshakeCompat(t *testing.T) {
	gw := newTestGateway(t, Config{})
	srv := newWireServer(t, gw, ServerConfig{})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)

	// JSON hello asking for binary.
	if err := json.NewEncoder(conn).Encode(Request{Op: OpHello, Client: "compat", Wire: "binary"}); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	if line[0] == FrameMagic {
		t.Fatal("hello response was a binary frame; the handshake must stay JSON")
	}
	var hello Response
	if err := json.Unmarshal(line, &hello); err != nil {
		t.Fatalf("hello response not JSON: %v", err)
	}
	if hello.Type != TypeHello || hello.Session != "compat" {
		t.Fatalf("hello response %+v", hello)
	}

	// The subscribe can still be sent as JSON — framings interleave — but
	// its response must now arrive as a binary frame.
	if err := json.NewEncoder(conn).Encode(Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms"}); err != nil {
		t.Fatal(err)
	}
	first, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	if first != FrameMagic {
		t.Fatalf("post-handshake response starts with %#x, want binary frame magic %#x", first, FrameMagic)
	}
	payload, err := readBinaryFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	subbed, err := decodeResponsePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if subbed.Type != TypeSubscribed || subbed.Sub == 0 {
		t.Fatalf("subscribed response %+v", subbed)
	}
}

// TestServerCrashReattachResumeBinary replays the crash-recovery handshake
// over the binary codec — the WAL below it is binary too, so this covers
// exactly-once resume across the full format change.
func TestServerCrashReattachResumeBinary(t *testing.T) {
	cfg := walConfig(t, filepath.Join(t.TempDir(), "gw.wal"))
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srvCfg := ServerConfig{
		Addr:      "127.0.0.1:0",
		TickEvery: 5 * time.Millisecond,
		Quantum:   2048 * time.Millisecond,
	}
	srv, err := NewServer(gw, srvCfg)
	if err != nil {
		_ = gw.Close()
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr().String(), ClientConfig{Binary: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hello, err := c.Hello("phoenix", "")
	if err != nil {
		t.Fatal(err)
	}
	if hello.Token == "" {
		t.Fatal("hello carried no resume token")
	}
	if err := c.Send(Request{Op: OpSubscribe, Query: "SELECT light EPOCH DURATION 2048ms"}); err != nil {
		t.Fatal(err)
	}
	subbed, err := c.RecvType(TypeSubscribed)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeen uint64
	for i := 0; i < 2; i++ {
		r, err := c.RecvType(TypeRows)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != lastSeen+1 {
			t.Fatalf("pre-crash seq = %d, want %d", r.Seq, lastSeen+1)
		}
		lastSeen = r.Seq
	}
	c.Close()

	_ = srv.Close()
	if err := gw.Crash(); err != nil {
		t.Fatal(err)
	}
	g2, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(g2, srvCfg)
	if err != nil {
		_ = g2.Close()
		t.Fatal(err)
	}
	defer func() {
		_ = g2.Close()
		_ = s2.Close()
	}()

	c2, err := Dial(s2.Addr().String(), ClientConfig{Binary: true, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h2, err := c2.Hello("phoenix", hello.Token)
	if err != nil {
		t.Fatal(err)
	}
	if len(h2.Subs) != 1 || h2.Subs[0].Sub != subbed.Sub {
		t.Fatalf("re-attach listed %+v, want subscription %d", h2.Subs, subbed.Sub)
	}
	if err := c2.Send(Request{Op: OpResume, Sub: subbed.Sub, After: lastSeen}); err != nil {
		t.Fatal(err)
	}
	rs, err := c2.RecvType(TypeSubscribed)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Resumed || rs.Sub != subbed.Sub {
		t.Fatalf("resume response %+v", rs)
	}
	for i := 0; i < 2; i++ {
		r, err := c2.RecvType(TypeRows)
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != lastSeen+1 {
			t.Fatalf("post-resume seq = %d, want %d", r.Seq, lastSeen+1)
		}
		lastSeen = r.Seq
	}
}

// TestFrameBufPoolReuse: the pooled encode buffer grows once and is reused
// — the pool must hand back byte slices with retained capacity.
func TestFrameBufPoolReuse(t *testing.T) {
	// Under the race detector sync.Pool randomly drops a fraction of Puts
	// (to shake out pool races), so a single put/get round can hand back a
	// fresh buffer even though the code is correct. Retrying makes the odds
	// of every round being dropped negligible.
	for attempt := 0; attempt < 8; attempt++ {
		bp := getFrameBuf()
		*bp = append((*bp)[:0], bytes.Repeat([]byte{0xAB}, 4096)...)
		putFrameBuf(bp)
		got := getFrameBuf()
		if len(*got) != 0 {
			putFrameBuf(got)
			t.Fatalf("pooled buffer not reset: len=%d", len(*got))
		}
		retained := cap(*got) >= 4096
		putFrameBuf(got)
		if retained {
			return
		}
	}
	t.Fatal("pooled buffer lost capacity on every attempt")
}
