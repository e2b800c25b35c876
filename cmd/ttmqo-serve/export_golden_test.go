package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/query"
)

// `go test -update` rewrites the goldens from the current build.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// TestServeExportsGolden pins, at seeds 1 and 7, the bytes of what a
// single-gateway deployment reports about a scripted run: the wire `stats`
// reply, the /statusz document and the -json run export (traced, with the
// time series sampled). The run is driven by hand — no wall-clock pacer —
// so every byte is a function of the seed and the script.
func TestServeExportsGolden(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			jsonOut := filepath.Join(dir, "run.json")
			o, err := parseFlags([]string{"-seed", fmt.Sprint(seed), "-json", jsonOut, "-sample", "10s"})
			if err != nil {
				t.Fatal(err)
			}
			st, err := buildStack(o)
			if err != nil {
				t.Fatal(err)
			}
			runExportScript(t, st.Gateway())

			srv, err := gateway.NewServer(st.Top(), gateway.ServerConfig{Addr: "127.0.0.1:0", TickEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.WriteString(conn, `{"op":"stats","tag":"st"}`+"\n"); err != nil {
				t.Fatal(err)
			}
			stats, err := bufio.NewReader(conn).ReadBytes('\n')
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("testdata/stats_seed%d.golden", seed), stats)

			adm, err := startAdmin("127.0.0.1:0", st)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Get("http://" + adm.Addr() + "/statusz")
			if err != nil {
				t.Fatal(err)
			}
			statusz, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("testdata/statusz_seed%d.golden", seed), statusz)
			_ = adm.Close()

			// The drain order of serve: the stack, then the listener, then
			// the exports.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			if err := writeExports(st.Gateway(), jsonOut, ""); err != nil {
				t.Fatal(err)
			}
			exp, err := os.ReadFile(jsonOut)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("testdata/export_seed%d.golden", seed), exp)
		})
	}
}

// runExportScript drives two sessions through subscribes (one pair
// deduplicated onto one query), result rounds and an unsubscribe,
// draining every delivered update.
func runExportScript(t *testing.T, gw *gateway.Gateway) {
	t.Helper()
	var subs []*gateway.Subscription
	advance := func(rounds int) {
		for i := 0; i < rounds; i++ {
			if _, err := gw.Advance(4096 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			for _, s := range subs {
				s.Session().Read(func() { s.Take(nil) })
			}
		}
	}
	subscribe := func(sess *gateway.Session, text string) {
		ti, err := sess.SubscribeAsync(gateway.SubscribeRequest{Query: query.MustParse(text)})
		if err != nil {
			t.Fatal(err)
		}
		advance(1)
		s, err := ti.Wait()
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	alice, err := gw.Register("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := gw.Register("bob")
	if err != nil {
		t.Fatal(err)
	}
	subscribe(alice, "SELECT light, temp WHERE light > 200 EPOCH DURATION 4096ms")
	subscribe(bob, "SELECT temp, light WHERE light > 200 EPOCH DURATION 4096ms")
	subscribe(bob, "SELECT MAX(temp) EPOCH DURATION 8192ms")
	advance(6)
	ti, err := alice.UnsubscribeAsync(subs[0].ID())
	if err != nil {
		t.Fatal(err)
	}
	advance(1)
	if _, err := ti.Wait(); err != nil {
		t.Fatal(err)
	}
	subscribe(alice, "SELECT AVG(humidity) WHERE temp > 20 EPOCH DURATION 8192ms")
	advance(8)
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs:\n%s", path, got)
	}
}
