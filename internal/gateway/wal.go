package gateway

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/tracing"
)

// Crash recovery for the serving tier.
//
// The gateway's durable state is a write-ahead log of session and
// subscription lifecycle: registrations (with their resume tokens),
// subscription commits keyed by the canonical query text, unsubscriptions
// (explicit or by eviction), session closes, and per-Advance virtual-time
// progress marks. Every record carries the virtual instant of the state
// change, and every state change the log records happens at an Advance
// commit boundary — never in the middle of a simulated quantum — so the log
// is a total order of the serving tier's external inputs.
//
// Because the simulation itself is fully deterministic (seeded randomness,
// FIFO event ordering), that log IS the snapshot: Recover rebuilds a
// crashed gateway by replaying the logged lifecycle against a fresh
// simulation of the same configuration and running it to the last progress
// mark. The replayed world re-derives everything the crash destroyed —
// installed query set, optimizer state, radio accounting, per-subscription
// sequence numbers — bit-for-bit. Replayed result epochs land in each
// subscription's bounded resume ring instead of a live stream; a client
// that reconnects with its session token and last-seen sequence number gets
// the ring's tail replayed from exactly the next sequence, then the live
// stream — exactly-once resumption, with ring overflow surfacing as a
// counted, bounded gap rather than a silent loss.
//
// Compaction ("snapshot") drops the interior progress marks, which dominate
// the log's volume on long runs; the lifecycle records are kept verbatim
// since deterministic replay needs the full admission schedule. It runs
// every Config.SnapshotEvery advances and once after every recovery,
// rewriting the file atomically (temp file + rename).

// WAL record operations.
const (
	walOpRegister    = "reg"
	walOpSubscribe   = "sub"
	walOpUnsubscribe = "unsub"
	walOpClose       = "close"
	walOpAdvance     = "adv"
)

// walRecord is one line of the log. At is the virtual time of the state
// change in nanoseconds — full engine precision, so replay schedules each
// record at the exact instant it originally applied.
type walRecord struct {
	Op    string `json:"op"`
	At    int64  `json:"at"`
	Sess  string `json:"sess,omitempty"`
	Token string `json:"token,omitempty"`
	Sub   SubID  `json:"sub,omitempty"`
	// Query is the canonical query text (walOpSubscribe) — the same string
	// CanonicalKey produces, so the dedup cache rebuilds identically.
	Query string `json:"query,omitempty"`
	// Trace is the subscription's causal trace ID (walOpSubscribe; zero
	// when untraced). Persisting it keeps subscriber-propagated trace
	// contexts stable across crash recovery; derived IDs would replay
	// identically anyway. Optional on the wire, so pre-tracing logs
	// recover cleanly.
	Trace uint64 `json:"trace,omitempty"`
}

// wal is the append handle. All methods run under the gateway's lock.
//
// Records are written as binary frames (see codec.go) through one reused
// encode buffer: appends between flush points batch in the bufio.Writer
// and hit the disk as a single write per group-commit (walAdvance flushes
// once per Advance), with zero allocations per record in steady state.
type wal struct {
	path string
	f    *os.File
	w    *bufio.Writer
	size int64  // bytes accepted by the writer (including buffered ones)
	buf  []byte // reused per-record frame buffer
	// err poisons the log after the first write failure: a WAL that may
	// have dropped or torn a record mid-file must not accept more appends
	// (compaction thresholds and recovery would trust a lie), so every
	// later append/flush fails fast with the original error.
	err error
}

func createWAL(path string) (*wal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: create wal: %w", err)
	}
	return &wal{path: path, f: f, w: bufio.NewWriter(f)}, nil
}

func (w *wal) append(r walRecord) error {
	if w.err != nil {
		return w.err
	}
	b, err := appendWALFrame(w.buf[:0], &r)
	if err != nil {
		return err
	}
	w.buf = b
	frame := sealFrame(b)
	// Account only for what the writer accepted: a short write (bufio
	// draining to a failing file) must not inflate size past the bytes
	// that can ever reach the disk.
	n, err := w.w.Write(frame)
	w.size += int64(n)
	if err != nil {
		w.err = fmt.Errorf("gateway: wal append %s: %w", w.path, err)
		return w.err
	}
	return nil
}

func (w *wal) flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("gateway: wal flush %s: %w", w.path, err)
		return w.err
	}
	return nil
}

func (w *wal) close() error {
	if w == nil {
		return nil
	}
	ferr := w.w.Flush()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	return cerr
}

// readWAL parses a log file of binary frames. A truncated or malformed
// final record (torn write at crash) is tolerated and dropped; any earlier
// malformed record — a corrupt payload, or a byte that is not a frame's
// magic where a frame must start — is an error.
func readWAL(path string) ([]walRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var recs []walRecord
	var scratch []byte
	for {
		first, err := br.ReadByte()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		var r walRecord
		if first == FrameMagic {
			scratch, err = readBinaryFrame(br, scratch)
			// A short read is a torn tail only at end of log; a frame that
			// could not even state its length is torn if nothing follows it.
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return recs, nil
			}
			if err != nil {
				return nil, fmt.Errorf("gateway: wal %s: %w", path, err)
			}
			r, err = decodeWALPayload(scratch)
		} else {
			err = fmt.Errorf("byte %#x is not a frame", first)
		}
		if err != nil {
			// Malformed: legal only as the final record, where it is
			// indistinguishable from a torn write.
			if _, eof := br.ReadByte(); eof == io.EOF {
				return recs, nil
			}
			return nil, fmt.Errorf("gateway: wal %s: malformed record before end of log: %w", path, err)
		}
		recs = append(recs, r)
	}
}

// rewriteWAL atomically replaces the log with recs and returns a fresh
// append handle positioned after them.
func rewriteWAL(path string, recs []walRecord) (*wal, error) {
	tmp := path + ".tmp"
	w, err := createWAL(tmp)
	if err != nil {
		return nil, err
	}
	for _, r := range recs {
		if err := w.append(r); err != nil {
			w.close()
			os.Remove(tmp)
			return nil, err
		}
	}
	if err := w.close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{path: path, f: f, w: bufio.NewWriter(f), size: w.size}, nil
}

// compactLog returns the lifecycle records plus a single trailing progress
// mark at now — the "snapshot" form of the log.
func compactLog(lifecycle []walRecord, now sim.Time) []walRecord {
	out := make([]walRecord, 0, len(lifecycle)+1)
	out = append(out, lifecycle...)
	out = append(out, walRecord{Op: walOpAdvance, At: int64(now)})
	return out
}

// Recover rebuilds a crashed gateway from cfg.WALPath by deterministic
// replay: the same simulation configuration is constructed from scratch,
// every logged lifecycle record is re-applied at its original virtual
// instant (admission control bypassed — it already passed once), and the
// engine is run to the last logged progress mark. Sessions come back
// detached with their original tokens and their subscriptions' sequence
// numbers exactly where the crash left them; the most recent Buffer updates
// of each stream sit in its resume ring. Clients re-attach with
// Gateway.Attach (session token) and Session.Resume (last-seen sequence).
//
// Token buckets restart full and the idle-reap clock restarts at recovery,
// which only ever errs in the client's favour.
func Recover(cfg Config) (*Gateway, error) {
	if cfg.WALPath == "" {
		return nil, fmt.Errorf("gateway: Recover requires Config.WALPath")
	}
	recs, err := readWAL(cfg.WALPath)
	if err != nil {
		return nil, err
	}
	g, err := build(cfg)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.replaying = true
	var lastNow int64
	for _, r := range recs {
		lastNow = max(lastNow, r.At)
	}
	// Everyone comes back detached, with the idle clock starting where the
	// replay ends and a full bucket.
	sessions := make(map[string]*Session)
	for _, r := range recs {
		if r.Op == walOpAdvance {
			continue
		}
		g.sim.Engine().Schedule(sim.Time(r.At), func() {
			if err := g.replay(sessions, r, sim.Time(lastNow)); err != nil && g.walErr == nil {
				g.walErr = fmt.Errorf("gateway: replay %s at %v: %w", r.Op, time.Duration(r.At), err)
			}
		})
	}
	g.sim.Run(time.Duration(lastNow))
	g.replaying = false
	if g.walErr != nil {
		return nil, g.walErr
	}
	g.stats.Recoveries++
	g.k.ForgetRingDropsLocked()
	// The recovery hop: one tier-level span saying how much log the
	// rebuild replayed and how much virtual time it re-derived.
	g.cfg.Tracer.Record(tracing.Span{
		Kind:  tracing.KindWALReplay,
		Shard: g.traceShard(),
		AtMS:  g.nowMS(),
		Seq:   uint64(len(recs)),
		Note:  fmt.Sprintf("replayed %d records to %v", len(recs), time.Duration(lastNow)),
	})
	g.walLog = lifecycleRecords(recs)
	w, err := rewriteWAL(cfg.WALPath, compactLog(g.walLog, g.now()))
	if err != nil {
		return nil, err
	}
	g.wal = w
	g.stats.WALCompactions++
	g.stats.WALSizeBytes = w.size
	return g, nil
}

func lifecycleRecords(recs []walRecord) []walRecord {
	out := make([]walRecord, 0, len(recs))
	for _, r := range recs {
		if r.Op != walOpAdvance {
			out = append(out, r)
		}
	}
	return out
}

// replay applies one lifecycle record through the kernel's restore entry
// points. It runs inside an engine callback during Recover, at the record's
// original virtual instant; sessions maps the names replayed so far.
func (g *Gateway) replay(sessions map[string]*Session, r walRecord, end sim.Time) error {
	if r.Op == walOpRegister {
		s, err := g.k.RestoreSessionLocked(r.Sess, r.Token, end)
		if err != nil {
			return err
		}
		sessions[r.Sess] = s
		g.buckets[r.Sess] = g.cfg.Burst
		return nil
	}
	s := sessions[r.Sess]
	if s == nil {
		return fmt.Errorf("unknown session %q", r.Sess)
	}
	switch r.Op {
	case walOpSubscribe:
		q, err := query.Parse(r.Query)
		if err != nil {
			return fmt.Errorf("canonical query %q: %w", r.Query, err)
		}
		n, key, err := Canonicalize(q)
		if err != nil {
			return err
		}
		sh, err := g.groupLocked(n, key)
		if err != nil {
			return err
		}
		// The logged trace restores the causal context; the admit spans are
		// not re-recorded (see recordSpan).
		g.k.RestoreSubLocked(s, r.Sub, sh, r.Trace)
		return nil
	case walOpUnsubscribe:
		return g.k.UnsubscribeLocked(s, r.Sub)
	case walOpClose:
		g.k.CloseSessionLocked(s)
		delete(sessions, r.Sess)
		return nil
	default:
		return fmt.Errorf("unknown wal op %q", r.Op)
	}
}

// walAppend writes one lifecycle record, stamped with the current virtual
// instant; replay mode and disabled logs are no-ops. Write failures poison
// the gateway (surfaced by the next Advance) rather than silently dropping
// durability.
func (g *Gateway) walAppend(r walRecord) {
	if g.wal == nil || g.replaying {
		return
	}
	r.At = int64(g.now())
	g.walLog = append(g.walLog, r)
	if err := g.wal.append(r); err != nil && g.walErr == nil {
		g.walErr = err
	}
	g.stats.WALAppends++
	g.stats.WALSizeBytes = g.wal.size
}

func (g *Gateway) walFlush() {
	if g.wal == nil {
		return
	}
	if err := g.wal.flush(); err != nil && g.walErr == nil {
		g.walErr = err
	}
}

// walAdvance writes the per-Advance progress mark and, every SnapshotEvery
// advances, compacts the log.
func (g *Gateway) walAdvance() {
	if g.wal == nil {
		return
	}
	now := g.sim.Engine().Now()
	rec := walRecord{Op: walOpAdvance, At: int64(now)}
	if err := g.wal.append(rec); err != nil && g.walErr == nil {
		g.walErr = err
	}
	g.stats.WALAppends++
	g.stats.WALSizeBytes = g.wal.size
	g.advances++
	if g.cfg.SnapshotEvery > 0 && g.advances%int64(g.cfg.SnapshotEvery) == 0 {
		if err := g.wal.close(); err != nil && g.walErr == nil {
			g.walErr = err
		}
		w, err := rewriteWAL(g.wal.path, compactLog(g.walLog, now))
		if err != nil {
			if g.walErr == nil {
				g.walErr = err
			}
			g.wal = nil
			return
		}
		g.wal = w
		g.stats.WALCompactions++
		g.stats.WALSizeBytes = w.size
		return
	}
	g.walFlush()
}
