package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/tracing"
)

// procOutput accumulates the child process's output across goroutines.
type procOutput struct {
	mu sync.Mutex
	sb strings.Builder
}

func (p *procOutput) add(line string) {
	p.mu.Lock()
	p.sb.WriteString(line + "\n")
	p.mu.Unlock()
}

func (p *procOutput) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sb.String()
}

// serveBin is the real binary, built once per test process.
var serveBin struct {
	once      sync.Once
	dir, path string
	err       error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if serveBin.dir != "" {
		os.RemoveAll(serveBin.dir)
	}
	os.Exit(code)
}

// serveProc is one booted ttmqo-serve: its captured output and the data
// and admin addresses its banners printed.
type serveProc struct {
	t           *testing.T
	cmd         *exec.Cmd
	out         *procOutput
	eof         chan struct{} // closed once all of the process's output is in out
	addr, admin string
}

var bannerRe = regexp.MustCompile(`^ttmqo-serve: (?:listening|router|sharing coordinator|admin) on (?:http://)?(\S+)`)

// bootServe builds the binary if need be, starts it on ephemeral data and
// admin ports with args appended, and waits for both banners.
func bootServe(t *testing.T, args ...string) *serveProc {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the serve binary")
	}
	serveBin.once.Do(func() {
		if serveBin.dir, serveBin.err = os.MkdirTemp("", "ttmqo-serve-test"); serveBin.err != nil {
			return
		}
		serveBin.path = filepath.Join(serveBin.dir, "ttmqo-serve")
		if out, err := exec.Command("go", "build", "-o", serveBin.path, ".").CombinedOutput(); err != nil {
			serveBin.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if serveBin.err != nil {
		t.Fatal(serveBin.err)
	}
	p := &serveProc{t: t, out: &procOutput{}, eof: make(chan struct{})}
	p.cmd = exec.Command(serveBin.path, append([]string{"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)...)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.cmd.Process.Kill() })

	// Collect output and surface the two addresses as they are printed.
	banners := make(chan []string, 2)
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			p.out.add(sc.Text())
			if m := bannerRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case banners <- m:
				default:
				}
			}
		}
	}()
	for p.addr == "" || p.admin == "" {
		select {
		case m := <-banners:
			if strings.Contains(m[0], "admin on") {
				p.admin = m[1]
			} else {
				p.addr = m[1]
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("serve banners never printed (addr=%q admin=%q); output so far:\n%s", p.addr, p.admin, p.out)
		}
	}
	return p
}

// get fetches one admin-plane path.
func (p *serveProc) get(path string) (int, string) {
	p.t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + p.admin + path)
	if err != nil {
		p.t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		p.t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// metrics scrapes /metrics through the decoder-side validator.
func (p *serveProc) metrics() []telemetry.ParsedSample {
	p.t.Helper()
	code, body := p.get("/metrics")
	if code != http.StatusOK {
		p.t.Fatalf("/metrics = %d, want 200", code)
	}
	samples, err := telemetry.ParseExposition(body)
	if err != nil {
		p.t.Fatalf("/metrics malformed: %v\n%s", err, body)
	}
	return samples
}

// terminate sends SIGTERM, requires a clean drain and exit 0, and returns
// everything the process printed.
func (p *serveProc) terminate() string {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatal(err)
	}
	// Wait closes the pipe, so every read must have completed first.
	select {
	case <-p.eof:
	case <-time.After(15 * time.Second):
		p.t.Fatalf("serve did not exit after SIGTERM; output:\n%s", p.out)
	}
	if err := p.cmd.Wait(); err != nil {
		p.t.Fatalf("serve exited non-zero: %v\noutput:\n%s", err, p.out)
	}
	return p.out.String()
}

// TestFlagValidation pins the flag accept/reject matrix: every combination
// a stack shape cannot honour is an error naming the flag, never a flag
// silently ignored.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // error substring; empty = accepted
	}{
		{"", ""},
		{"-scheme nope", `unknown scheme "nope"`},
		{"-cache-window 3", "-cache-window requires -share"},
		{"-share -cache-window 3", ""},
		{"-share -wal gw.wal", ""},
		{"-share -crash-after 1s -wal gw.wal", "-share does not compose with the -crash-after drill"},
		{"-share -json o.json", "-json/-series support only gateway-direct serving"},
		{"-share -series o.csv", "-json/-series support only gateway-direct serving"},
		{"-shards 2", ""},
		{"-shards 2 -waldir d", ""},
		{"-shards 2 -share", ""},
		{"-shards 2 -share -waldir d -cache-window -1", ""},
		{"-shards 2 -wal gw.wal", "-shards uses per-shard logs; set -waldir instead of -wal"},
		{"-shards 2 -crash-after 1s", "-crash-after supports only single-gateway serving"},
		{"-shards 2 -json o.json", "-json/-series support only single-gateway serving"},
		{"-shards 2 -series o.csv", "-json/-series support only single-gateway serving"},
		{"-wal gw.wal", ""},
		{"-json o.json -series o.csv -sample 10s", ""},
		{"-crash-after 1s", "-crash-after requires -wal"},
		{"-crash-after 1s -wal gw.wal", ""},
		{"-crash-after 1s -crash-outage 1s -wal gw.wal", ""},
		// Durability flags that used to be silently dropped.
		{"-waldir d", "-waldir requires -shards K > 1"},
		{"-shards 1 -waldir d", "-waldir requires -shards K > 1"},
		{"-share -waldir d", "-waldir requires -shards K > 1"},
		{"-crash-outage 1s", "-crash-outage requires -crash-after"},
		{"-wal gw.wal -crash-outage 1s", "-crash-outage requires -crash-after"},
		{"-shards 2 -crash-outage 1s", "-crash-outage requires -crash-after"},
	} {
		_, err := parseFlags(strings.Fields(tc.args))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q rejected: %v", tc.args, err)
		case tc.want != "" && err == nil:
			t.Errorf("%q accepted, want an error containing %q", tc.args, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%q rejected with %q, want %q", tc.args, err, tc.want)
		}
	}
}

// TestBootSmoke boots the real binary in each of the four stack shapes and
// checks what every shape owes an operator: a first result frame over TCP,
// /readyz 200, a valid /metrics exposition carrying the shape's families,
// the /statusz sections of its tiers, and a SIGTERM drain that exits 0
// after printing the shape's summary line.
func TestBootSmoke(t *testing.T) {
	for _, shape := range []struct {
		name     string
		args     []string
		banner   string
		families []string
		sections []string
		summary  string
	}{
		{"gateway", nil, "ttmqo-serve: listening on ",
			[]string{"ttmqo_gateway_up", "ttmqo_radio_messages_total", "ttmqo_trace_spans_recorded_total"},
			[]string{"gateway", "resilience", "tracing"}, " admitted=1 "},
		{"share", []string{"-share"}, "ttmqo-serve: sharing coordinator on ",
			[]string{"ttmqo_gateway_up", "ttmqo_share_fragments_active", "ttmqo_cache_hit_ratio", "ttmqo_share_up"},
			[]string{"gateway", "share", "resilience", "tracing"}, " fragments_created=1 "},
		{"shards", []string{"-shards", "2", "-side", "3"}, "ttmqo-serve: router on ",
			[]string{"ttmqo_router_up", "ttmqo_shard_up", "ttmqo_router_merged_epochs_total", "ttmqo_router_unsubscribes_total"},
			[]string{"federation", "resilience", "tracing"}, "shards=2 sessions=1 subscribes=1 "},
		{"share over shards", []string{"-share", "-shards", "2", "-side", "3"}, "ttmqo-serve: sharing coordinator on ",
			[]string{"ttmqo_router_up", "ttmqo_shard_up", "ttmqo_share_fragments_active", "ttmqo_share_up", "ttmqo_router_unsubscribes_total"},
			[]string{"federation", "share", "resilience", "tracing"}, " fragments_created=1 "},
	} {
		t.Run(shape.name, func(t *testing.T) {
			p := bootServe(t, append([]string{"-tick", "20ms"}, shape.args...)...)
			cl, err := gateway.Dial(p.addr, gateway.ClientConfig{Binary: true, Timeout: 10 * time.Second})
			if err != nil {
				t.Fatalf("dial %s: %v", p.addr, err)
			}
			defer cl.Close()
			if _, err := cl.Hello("boot-smoke", ""); err != nil {
				t.Fatalf("hello: %v", err)
			}
			// Sensors 1..15 of a 4x4 grid, or both sides of the 8|9 shard
			// split of 2 shards x side 3.
			sub, err := cl.SubscribeRetry("SELECT MAX(light) WHERE nodeid >= 5 AND nodeid <= 12 EPOCH DURATION 2048ms", "s", gateway.RetryConfig{})
			if err != nil {
				t.Fatalf("subscribe: %v\noutput:\n%s", err, p.out)
			}
			first, err := cl.RecvType(gateway.TypeAgg)
			if err != nil {
				t.Fatalf("first frame: %v\noutput:\n%s", err, p.out)
			}
			if first.Sub != sub.Sub || first.Seq != 1 {
				t.Fatalf("first frame is sub=%d seq=%d, want sub=%d seq=1", first.Sub, first.Seq, sub.Sub)
			}

			if code, body := p.get("/readyz"); code != http.StatusOK {
				t.Errorf("/readyz = %d (%s), want 200", code, body)
			}
			samples := p.metrics()
			for _, fam := range shape.families {
				if _, ok := telemetry.FindSample(samples, fam); !ok {
					t.Errorf("/metrics lacks %s", fam)
				}
			}
			code, body := p.get("/statusz")
			var status map[string]any
			if err := json.Unmarshal([]byte(body), &status); code != http.StatusOK || err != nil {
				t.Fatalf("/statusz = %d, JSON error %v:\n%s", code, err, body)
			}
			if len(status) != len(shape.sections) {
				t.Errorf("/statusz has %d sections, want %v:\n%s", len(status), shape.sections, body)
			}
			for _, sec := range shape.sections {
				if _, ok := status[sec]; !ok {
					t.Errorf("/statusz lacks the %s section", sec)
				}
			}
			if code, _ := p.get("/tracez"); code != http.StatusOK {
				t.Errorf("/tracez = %d, want 200", code)
			}

			cl.Close()
			out := p.terminate()
			for _, want := range []string{shape.banner, "ttmqo-serve: admin on http://", "ttmqo-serve: draining", shape.summary} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestAdminSmoke is the end-to-end drill behind `make admin-smoke`: it
// builds the real binary, boots it with -admin and the built-in
// crash/recovery drill, and asserts the admin plane's contract over the
// process boundary — every endpoint answers, /metrics parses under the
// decoder-side validator, and /readyz reads 200 before the crash, 503
// during the held outage, and 200 again once WAL replay recovers the
// gateway, while /healthz stays 200 throughout.
func TestAdminSmoke(t *testing.T) {
	p := bootServe(t,
		"-wal", filepath.Join(t.TempDir(), "gw.wal"),
		"-crash-after", "1s",
		"-crash-outage", "1500ms",
		"-tick", "50ms",
		"-quantum", "512ms",
	)
	get, out := p.get, p.out

	// Phase 1: all endpoints answer while the gateway is up.
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before crash = %d (%s), want 200", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	samples := p.metrics()
	for _, name := range []string{
		"ttmqo_gateway_up",
		"ttmqo_gateway_admitted_total",
		"ttmqo_wal_appends_total",
		"ttmqo_radio_messages_total",
		"ttmqo_node_energy_joules",
		"ttmqo_query_time_to_first_result_seconds_count",
	} {
		if _, ok := telemetry.FindSample(samples, name); !ok {
			t.Errorf("/metrics lacks %s", name)
		}
	}
	code, body := get("/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz = %d, want 200", code)
	}
	var status map[string]any
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	gwSection, ok := status["gateway"].(map[string]any)
	if !ok {
		t.Fatalf("/statusz lacks a gateway section: %s", body)
	}
	if alive, ok := gwSection["alive"].(bool); !ok || !alive {
		t.Fatalf("/statusz gateway.alive = %v, want true: %s", gwSection["alive"], body)
	}
	if _, ok := status["resilience"].(map[string]any); !ok {
		t.Fatalf("/statusz lacks a resilience section: %s", body)
	}
	if _, ok := status["tracing"]; !ok {
		t.Fatalf("/statusz lacks a tracing section: %s", body)
	}
	if code, _ := get("/tracez"); code != http.StatusOK {
		t.Fatalf("/tracez = %d, want 200", code)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d, want 200", code)
	}

	// Phase 2: the -crash-after drill fires at 1s and holds the gateway
	// down for 1.5s; poll until /readyz reports the outage.
	sawOutage := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, _ := get("/readyz")
		if code == http.StatusServiceUnavailable {
			sawOutage = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !sawOutage {
		t.Fatalf("/readyz never went 503 during the crash drill; output:\n%s", out.String())
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during outage = %d, want 200 (process liveness)", code)
	}

	// Phase 3: recovery flips readiness back.
	recovered := false
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, _ := get("/readyz")
		if code == http.StatusOK {
			recovered = true
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("/readyz never recovered to 200 after WAL replay; output:\n%s", out.String())
	}
	if s, ok := telemetry.FindSample(p.metrics(), "ttmqo_gateway_recoveries_total"); !ok || s.Value < 1 {
		t.Fatalf("recoveries_total after drill = %+v, want >= 1", s)
	}

	// The simulation's event log follows the span trees on /tracez: the
	// network tier's ring, which survived the crash, shows transmissions.
	var tracez string
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && !simEventsHaveTx(tracez) {
		_, tracez = get("/tracez")
		time.Sleep(50 * time.Millisecond)
	}
	if !simEventsHaveTx(tracez) {
		t.Fatalf("/tracez has no simulation event with a tx line:\n%s", tracez)
	}

	// Clean shutdown on SIGTERM.
	p.terminate()
}

// simEventsHaveTx reports whether a /tracez page carries its "simulation
// events:" section with at least one transmission line.
func simEventsHaveTx(tracez string) bool {
	_, events, ok := strings.Cut(tracez, "\nsimulation events:\n")
	if !ok {
		return false
	}
	for _, line := range strings.Split(events, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[2] == tracing.KindTx {
			return true
		}
	}
	return false
}

// TestTraceSmoke is the end-to-end drill behind `make trace-smoke`: it
// boots the real binary in its deepest composition — sharing coordinator
// over a two-shard federation router — subscribes over the real TCP wire
// with a client-pinned trace ID, and asserts the whole causal story from
// the outside: the pinned ID echoes on the subscribed ack, every
// delivered update carries it plus a non-empty provenance stamp, and the
// admin plane's /tracez?trace=<id> JSON export contains a span chain that
// walks gateway → router → share tiers up to the share/subscribe root.
func TestTraceSmoke(t *testing.T) {
	p := bootServe(t,
		"-shards", "2",
		"-side", "3",
		"-share",
		"-tick", "50ms",
		"-quantum", "2048ms",
	)
	addr, get, out := p.addr, p.get, p.out

	// Subscribe over the binary wire with a client-pinned trace identity.
	// The query straddles the shard boundary (2 shards × side 3 → sensors
	// 1..16, split 8|9), so serving it exercises share fragmentation AND
	// router shard fan-out.
	const pinned = uint64(0xC0FFEE)
	cl, err := gateway.Dial(addr, gateway.ClientConfig{Binary: true, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()
	if _, err := cl.Hello("trace-smoke", ""); err != nil {
		t.Fatalf("hello: %v", err)
	}
	sub, err := cl.SubscribeRetry(
		"SELECT SUM(light) WHERE nodeid >= 5 AND nodeid <= 12 EPOCH DURATION 2048ms",
		"s1", gateway.RetryConfig{TraceID: pinned})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if sub.TraceID != pinned {
		t.Fatalf("subscribed ack echoes trace %#x, want the pinned %#x", sub.TraceID, pinned)
	}

	// Every delivered update must carry the trace and a provenance stamp.
	var update gateway.Response
	for {
		resp, err := cl.Recv()
		if err != nil {
			t.Fatalf("recv: %v\noutput:\n%s", err, out.String())
		}
		if resp.Type == gateway.TypeError {
			t.Fatalf("server error while waiting for an update: %s", resp.Error)
		}
		if (resp.Type == gateway.TypeRows || resp.Type == gateway.TypeAgg) && resp.Sub == sub.Sub {
			update = resp
			break
		}
	}
	if update.TraceID != pinned {
		t.Fatalf("delivered update carries trace %#x, want %#x", update.TraceID, pinned)
	}
	if update.Prov == nil {
		t.Fatalf("delivered update carries no provenance stamp: %+v", update)
	}
	if update.Prov.Frags < 1 {
		t.Fatalf("provenance reports %d fragments, want >= 1: %+v", update.Prov.Frags, update.Prov)
	}
	if update.Prov.ShardMask == 0 {
		t.Fatalf("provenance reports an empty shard mask for a shard-straddling query: %+v", update.Prov)
	}

	// The text tree view names the pinned trace in hex.
	if code, body := get("/tracez"); code != http.StatusOK ||
		!strings.Contains(body, fmt.Sprintf("trace %016x", pinned)) {
		t.Fatalf("/tracez = %d, want 200 naming trace %016x:\n%s", code, pinned, body)
	}

	// The JSON export for the pinned trace must contain a causal chain
	// that starts at a gateway-tier span and walks parent links through
	// the router tier to a share/subscribe root.
	code, body := get(fmt.Sprintf("/tracez?trace=%d", pinned))
	if code != http.StatusOK {
		t.Fatalf("/tracez?trace=%d = %d (%s), want 200", pinned, code, body)
	}
	var tr tracing.TraceSpans
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("trace export is not JSON: %v\n%s", err, body)
	}
	if tr.Trace != pinned {
		t.Fatalf("export is for trace %#x, want %#x", tr.Trace, pinned)
	}
	byID := map[uint64]tracing.Span{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	sawChain := false
	for _, s := range tr.Spans {
		if s.Tier != tracing.TierGateway {
			continue
		}
		tiers := map[string]bool{}
		cur, ok := s, true
		for ok {
			tiers[cur.Tier] = true
			if cur.Parent == 0 {
				break
			}
			cur, ok = byID[cur.Parent]
		}
		if ok && tiers[tracing.TierGateway] && tiers[tracing.TierRouter] && tiers[tracing.TierShare] &&
			cur.Tier == tracing.TierShare && cur.Kind == tracing.KindSubscribe {
			sawChain = true
			break
		}
	}
	if !sawChain {
		t.Fatalf("no gateway-tier span walks up through router and share to a share/subscribe root:\n%s", body)
	}

	// Clean shutdown on SIGTERM.
	p.terminate()
}
