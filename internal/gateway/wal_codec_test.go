package gateway

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var walFixture = []walRecord{
	{Op: walOpRegister, At: 0, Sess: "alice", Token: "tok-1"},
	{Op: walOpSubscribe, At: 2048, Sess: "alice", Sub: 1, Query: "SELECT light EPOCH DURATION 2048ms"},
	{Op: walOpAdvance, At: 4096},
	{Op: walOpUnsubscribe, At: 6144, Sess: "alice", Sub: 1},
	{Op: walOpClose, At: 8192, Sess: "alice"},
}

func writeBinaryWAL(t *testing.T, path string, recs []walRecord) {
	t.Helper()
	w, err := createWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALBinaryRoundTripThroughFile: append → read back recovers every
// record bit-exact through the on-disk binary framing.
func TestWALBinaryRoundTripThroughFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gw.wal")
	writeBinaryWAL(t, path, walFixture)
	got, err := readWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, walFixture) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, walFixture)
	}
	// The log must actually be binary-framed, not JSON.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[0] != FrameMagic {
		t.Fatalf("wal starts with %#x, want binary frame magic %#x", raw[0], FrameMagic)
	}
}

// TestWALRejectsNonFrameRecord: only binary frames are ever written, so a
// byte that is not a frame's magic where a record must start is a malformed
// record — an error before the end of the log (an NDJSON line from the
// pre-codec gateway included), tolerated only as the log's torn last byte.
func TestWALRejectsNonFrameRecord(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.wal")
	writeBinaryWAL(t, whole, walFixture)
	raw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(walFixture[0])
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		raw  []byte
		want int // records recovered; -1 = error
	}{
		"json-line-first":  {append(append(line, '\n'), raw...), -1},
		"json-line-last":   {append(append([]byte(nil), raw...), append(line, '\n')...), -1},
		"stray-final-byte": {append(append([]byte(nil), raw...), '{'), len(walFixture)},
	} {
		path := filepath.Join(dir, name+".wal")
		if err := os.WriteFile(path, c.raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readWAL(path)
		if c.want < 0 {
			if err == nil {
				t.Errorf("%s: accepted %d records, want an error", name, len(got))
			}
		} else if err != nil || len(got) != c.want {
			t.Errorf("%s: %d records, err %v; want %d", name, len(got), err, c.want)
		}
	}
}

// TestWALTornTailTolerated: a crash mid-write leaves a truncated final
// frame; recovery keeps everything before it. Every truncation point
// within the final frame must behave the same.
func TestWALTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.wal")
	writeBinaryWAL(t, whole, walFixture)
	raw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the last frame starts: encode the prefix alone.
	prefix := filepath.Join(dir, "prefix.wal")
	writeBinaryWAL(t, prefix, walFixture[:len(walFixture)-1])
	praw, err := os.ReadFile(prefix)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(praw) + 1; cut < len(raw); cut++ {
		torn := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readWAL(torn)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, walFixture[:len(walFixture)-1]) {
			t.Fatalf("cut at %d: got %d records, want %d", cut, len(got), len(walFixture)-1)
		}
	}
}

// TestWALInteriorCorruptionRejected: garbage before the end of the log is
// a real error, not a torn tail.
func TestWALInteriorCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole.wal")
	writeBinaryWAL(t, whole, walFixture)
	raw, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the first frame's payload (skip magic+len).
	raw[4] ^= 0xFF
	bad := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWAL(bad); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// TestWALAppendZeroAlloc: appending a lifecycle record encodes through the
// log's reused frame buffer and allocates nothing.
func TestWALAppendZeroAlloc(t *testing.T) {
	rec := walRecord{Op: walOpSubscribe, At: 8192 * 1e6, Sess: "client-00042", Sub: 17,
		Query: "SELECT light, temp WHERE light > 200 EPOCH DURATION 8192ms"}
	w := &wal{w: bufio.NewWriterSize(io.Discard, 64*1024)}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("wal.append allocates %.1f objects per record, want 0", allocs)
	}
}
