// Package journal is rainbar-serve's durability layer: an append-only,
// CRC-framed, versioned write-ahead log of session lifecycle records.
// The daemon appends a Submit record when it admits a session, a
// Checkpoint record (the serve snapshot envelope, opaque bytes here) at
// configurable round intervals, and a Terminal record when the session
// ends; serve.Recover folds a replayed journal back into live sessions
// that resume bit-identically through the per-round reseeded restore
// path.
//
// The format is crash-tolerant by construction: every frame carries its
// own length and CRC-32, so replay stops at the first torn or corrupt
// frame and keeps everything before it — a partial append (power loss
// mid-write) costs at most the records after the last durable frame,
// never the whole journal, and never a panic. Fsync policy is
// configurable (always / every-N-records / off) because it is the whole
// durability-vs-throughput trade; BENCH_3.json records the cost of each
// setting.
//
// journal is a determinism-contract package: record bytes are a pure
// function of the record (fixed little-endian framing, no timestamps,
// no randomness), so two daemons journaling the same admissions produce
// byte-identical logs — which is what lets the chaos harness simulate a
// crash at any record boundary by replaying a prefix.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"rainbar/internal/obs"
)

// Classified replay errors; match with errors.Is. Only the file header
// can fail classification — a damaged frame truncates replay instead
// (see Replay).
var (
	// ErrBadJournal reports bytes that are not a journal at all.
	ErrBadJournal = errors.New("journal: malformed journal")
	// ErrJournalVersion reports an unsupported format version.
	ErrJournalVersion = errors.New("journal: unsupported version")
)

// journal file format, version 1 (all integers little-endian):
//
//	offset size
//	0      4    magic "RBJL"
//	4      2    version (currently 1)
//	6...        frames, each:
//	              4  payload length N
//	              N  payload: kind byte, u64 session id, kind-specific rest
//	              4  CRC-32 (IEEE) over the payload
//
// The kind-specific rest needs no inner length prefixes: each kind has
// at most one variable-length field, bounded by the frame.
const (
	journalMagic   = "RBJL"
	journalVersion = 1
	headerLen      = 6
	// maxFrame bounds one frame's payload; a checkpoint embeds a snapshot
	// envelope whose spec payload is capped at 16 MiB by serve admission,
	// so a frame claiming more than 64 MiB is corruption, not data.
	maxFrame = 64 << 20
)

// FileName is the journal file inside its directory.
const FileName = "serve.journal"

// Kind discriminates journal records.
type Kind uint8

const (
	// KindSubmit records a session admission: ID plus the SessionSpec
	// JSON needed to rebuild the deterministic link from round zero.
	KindSubmit Kind = 1
	// KindCheckpoint records a round-boundary snapshot: ID plus the
	// serve snapshot envelope (opaque to the journal). A checkpoint
	// supersedes the session's Submit record and any older checkpoints.
	KindCheckpoint Kind = 2
	// KindTerminal records the end of a session: ID, final state byte,
	// and the terminal error text ("" for a clean delivery). A terminal
	// record supersedes everything else for its ID — recovery must not
	// resurrect a finished session.
	KindTerminal Kind = 3
)

// String returns the record-kind name (used as the obs label).
func (k Kind) String() string {
	switch k {
	case KindSubmit:
		return "submit"
	case KindCheckpoint:
		return "checkpoint"
	case KindTerminal:
		return "terminal"
	}
	return "unknown"
}

// Record is one journal entry. Exactly the fields implied by Kind are
// meaningful; the rest stay zero.
type Record struct {
	// Kind says which lifecycle event this is.
	Kind Kind
	// ID is the session id in the daemon that wrote the record.
	ID uint64
	// Spec is the SessionSpec JSON (KindSubmit only).
	Spec []byte
	// Snapshot is the serve snapshot envelope (KindCheckpoint only);
	// the journal treats it as opaque bytes — the envelope carries its
	// own version and CRC.
	Snapshot []byte
	// State is the final lifecycle state byte (KindTerminal only).
	State uint8
	// Err is the terminal error text, "" for success (KindTerminal only).
	Err string
}

// encodeFrame serializes one record as a complete frame
// (length + payload + CRC). Record bytes are a pure function of the
// record, so equal journals are byte-equal.
func encodeFrame(rec Record) []byte {
	var body []byte
	switch rec.Kind {
	case KindSubmit:
		body = rec.Spec
	case KindCheckpoint:
		body = rec.Snapshot
	case KindTerminal:
		body = append([]byte{rec.State}, rec.Err...)
	}
	payload := make([]byte, 0, 9+len(body))
	payload = append(payload, byte(rec.Kind))
	payload = binary.LittleEndian.AppendUint64(payload, rec.ID)
	payload = append(payload, body...)
	frame := make([]byte, 0, 4+len(payload)+4)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return frame
}

// decodeFrame parses one CRC-validated frame payload. A false ok means
// the frame is structurally invalid even though its CRC matched (an
// encoder from the future, or corruption that collided the CRC) — the
// caller truncates there, same as a torn frame.
func decodeFrame(payload []byte) (Record, bool) {
	if len(payload) < 9 {
		return Record{}, false
	}
	rec := Record{Kind: Kind(payload[0]), ID: binary.LittleEndian.Uint64(payload[1:])}
	body := payload[9:]
	switch rec.Kind {
	case KindSubmit:
		rec.Spec = append([]byte(nil), body...)
	case KindCheckpoint:
		rec.Snapshot = append([]byte(nil), body...)
	case KindTerminal:
		if len(body) < 1 {
			return Record{}, false
		}
		rec.State = body[0]
		rec.Err = string(body[1:])
	default:
		return Record{}, false
	}
	return rec, true
}

// Replay parses journal bytes. It returns the records up to the first
// damaged frame and the byte offset where valid data ends; a torn or
// corrupt tail is NOT an error — it is truncated, which is exactly the
// crash-recovery semantics an append-only log wants. Only a header that
// is not a journal at all fails, with a classified error
// (ErrBadJournal, ErrJournalVersion). Replay never panics on any input.
func Replay(data []byte) ([]Record, int, error) {
	header := []byte(journalMagic)
	header = binary.LittleEndian.AppendUint16(header, journalVersion)
	if len(data) < headerLen {
		// A prefix of the header is a torn header write: an empty journal.
		// Anything else is not a journal.
		if string(data) == string(header[:len(data)]) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("%w: %d-byte header is not a journal prefix", ErrBadJournal, len(data))
	}
	if string(data[:4]) != journalMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadJournal)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != journalVersion {
		return nil, 0, fmt.Errorf("%w: version %d (want %d)", ErrJournalVersion, v, journalVersion)
	}
	var recs []Record
	off := headerLen
	for {
		rest := data[off:]
		if len(rest) < 4 {
			return recs, off, nil
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > maxFrame || uint64(4+n+4) > uint64(len(rest)) {
			return recs, off, nil
		}
		payload := rest[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return recs, off, nil
		}
		rec, ok := decodeFrame(payload)
		if !ok {
			return recs, off, nil
		}
		recs = append(recs, rec)
		off += int(4 + n + 4)
	}
}

// Fsync is the durability policy for appends.
type Fsync uint8

const (
	// FsyncInterval syncs every Options.SyncEvery appends (the default):
	// bounded data loss at a fraction of FsyncAlways's cost.
	FsyncInterval Fsync = iota
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the price of one fsync per record.
	FsyncAlways
	// FsyncOff never syncs; the OS flushes when it pleases. Crash
	// durability degrades to "whatever made it to disk", but replay
	// still truncates cleanly at the torn tail.
	FsyncOff
)

// String returns the policy name (the -fsync flag value).
func (f Fsync) String() string {
	switch f {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return "unknown"
}

// ParseFsync parses a -fsync flag value.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or off)", s)
}

// File is the slice of *os.File the journal writes through. The chaos
// harness substitutes error-injecting implementations to simulate a
// filling disk.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OpenFunc opens a file for appending (and creates it if absent). The
// default uses the os package; chaos injects failures here.
type OpenFunc func(path string) (File, error)

func osOpen(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Options configures a journal.
type Options struct {
	// Fsync is the append durability policy (default FsyncInterval).
	Fsync Fsync
	// SyncEvery is the FsyncInterval period in records (default 16).
	// Counting records instead of wall time keeps the journal's disk
	// behavior deterministic for a given record sequence.
	SyncEvery int
	// Open, when set, replaces the os-backed file opener for appends and
	// compaction rewrites (fault injection). Truncation of a torn tail
	// and the final rename of a compaction stay os-level.
	Open OpenFunc
	// Recorder, when set, counts appended records by kind. Journal
	// contents never depend on it.
	Recorder obs.Recorder
}

// Journal is an open journal file positioned for appending. Methods are
// safe for concurrent use. Write failures are sticky: the first failed
// append or sync poisons the journal (Err reports it, the daemon's
// health turns degraded) until a successful Compact rewrites the file.
// The server deliberately keeps serving with a poisoned journal —
// availability over durability; the operator sees it on /healthz.
type Journal struct {
	path string
	opts Options

	mu       sync.Mutex
	f        File
	replayed []Record
	appended int // records appended since open or last compact
	unsynced int // records appended since last sync
	err      error
}

// Open replays (and, if its tail is torn, repairs) the journal in dir,
// creating directory and file as needed, and returns it positioned for
// appending. Replay failures are classified (ErrBadJournal,
// ErrJournalVersion); a torn or corrupt tail is truncated away, never
// an error.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 16
	}
	open := opts.Open
	if open == nil {
		open = osOpen
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("journal: %w", err)
	}
	recs, tail, err := Replay(data)
	if err != nil {
		return nil, err
	}
	if tail < len(data) {
		// Torn tail from a mid-append crash: discard it so the next frame
		// lands on a valid boundary instead of extending the damage.
		if err := os.Truncate(path, int64(tail)); err != nil {
			return nil, fmt.Errorf("journal: repair torn tail: %w", err)
		}
	}
	f, err := open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, opts: opts, f: f, replayed: recs}
	if tail == 0 {
		if err := j.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

func (j *Journal) writeHeader() error {
	header := []byte(journalMagic)
	header = binary.LittleEndian.AppendUint16(header, journalVersion)
	if _, err := j.f.Write(header); err != nil {
		return fmt.Errorf("journal: write header: %w", err)
	}
	if j.opts.Fsync != FsyncOff {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync header: %w", err)
		}
	}
	return nil
}

// Records returns the records replayed at Open, oldest first.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Record(nil), j.replayed...)
}

// Appended returns the number of records appended since Open or the
// last successful Compact (the server's compaction trigger).
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the sticky write failure, nil while healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Append writes one record and applies the fsync policy. The first
// failure is sticky: every later Append returns it without touching the
// file, until a Compact succeeds.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.Write(encodeFrame(rec)); err != nil {
		j.err = fmt.Errorf("journal: append: %w", err)
		return j.err
	}
	j.appended++
	j.unsynced++
	if j.opts.Fsync == FsyncAlways || (j.opts.Fsync == FsyncInterval && j.unsynced >= j.opts.SyncEvery) {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("journal: sync: %w", err)
			return j.err
		}
		j.unsynced = 0
	}
	obs.OrNop(j.opts.Recorder).Inc(obs.With(obs.MServeJournalRecords, "kind", rec.Kind.String()), 1)
	return nil
}

// Sync forces outstanding appends to disk regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("journal: sync: %w", err)
		return j.err
	}
	j.unsynced = 0
	return nil
}

// Compact atomically replaces the journal with just the given records
// (header + keep, temp file + rename), then repositions for appending.
// A successful compact clears a sticky write error: the poisoned file
// is gone and the fresh one proved writable. On failure the old file
// and its append handle stay in place and the sticky error is set.
func (j *Journal) Compact(keep []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	open := j.opts.Open
	if open == nil {
		open = osOpen
	}
	tmp := j.path + ".tmp"
	// A stale tmp from a crashed compaction would be appended to; start clean.
	if err := os.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
		j.err = fmt.Errorf("journal: compact: %w", err)
		return j.err
	}
	buf := []byte(journalMagic)
	buf = binary.LittleEndian.AppendUint16(buf, journalVersion)
	for _, rec := range keep {
		buf = append(buf, encodeFrame(rec)...)
	}
	f, err := open(tmp)
	if err != nil {
		j.err = fmt.Errorf("journal: compact: %w", err)
		return j.err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp)
		j.err = fmt.Errorf("journal: compact: %w", err)
		return j.err
	}
	old := j.f
	nf, err := open(j.path)
	if err != nil {
		j.err = fmt.Errorf("journal: compact: reopen: %w", err)
		return j.err
	}
	old.Close()
	j.f = nf
	j.appended = 0
	j.unsynced = 0
	j.err = nil
	obs.OrNop(j.opts.Recorder).Inc(obs.MServeJournalCompactions, 1)
	return nil
}

// Close syncs (best effort under FsyncOff too — a clean shutdown should
// be durable) and closes the file. The journal is unusable afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	if err != nil && j.err == nil {
		j.err = fmt.Errorf("journal: close: %w", err)
	}
	return err
}
