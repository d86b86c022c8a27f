// Package wal is the durable ingest log behind the serving layer: every
// accepted ingest batch (and registry mutation) is appended as one
// length-prefixed record before the client is acked, so a crash loses at
// most the unacked tail and restart = latest snapshot + deterministic
// replay of the log tail.
//
// Records reuse the internal/wire columnar frame encoding verbatim —
// event batches are event frames, registry mutations are control frames
// — so the binary ingest path logs with a memcpy-shaped encode and
// replay decodes with the same zero-copy reader the wire path uses.
//
// # Group commit
//
// Appends stage into an in-memory buffer under a short lock and return a
// Commit ticket; one committer goroutine writes everything staged since
// its last pass in a single segment write and (under FsyncEvery) a
// single fsync, then acks every ticket it covered. Concurrent ingest
// batches therefore amortize one fsync across the group — callers block
// on Commit.Wait, not on each other's disk latency.
//
// # Segments and the manifest hash chain
//
// The log is a sequence of segment files, seg-<base>.wal, where <base>
// is the offset (record index) of the segment's first record. When the
// active segment reaches Options.SegmentBytes it is sealed: fsynced,
// content-hashed, and recorded in the MANIFEST file as a JSON line whose
// Chain field is sha256(prev chain ‖ entry), making the sealed history
// tamper-evident: altering any sealed byte, reordering entries, or
// dropping a segment without its chained "drop" entry breaks
// verification at Open. The active segment is the only file the
// manifest does not yet cover; its tail may be torn by a crash and is
// truncated at the first incomplete record on recovery. Corruption
// anywhere else — a sealed segment whose bytes do not match the
// manifest hash, a broken chain — is reported, never silently replayed.
//
// # Snapshots
//
// Snapshots are offset-stamped state blobs written beside the segments
// (snap-<offset>.fws, checksummed, temp+rename). A snapshot at offset N
// asserts "this state reflects records [0, N)", so recovery loads the
// newest valid snapshot and replays only the records at or after its
// offset; TruncateBefore then retires whole segments below it, keeping
// both checkpoint cost and replay time proportional to the tail, not
// the total history.
package wal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"factorwindows/internal/stream"
	"factorwindows/internal/wire"
)

// FsyncPolicy says when appended records reach stable storage.
type FsyncPolicy int

const (
	// FsyncEvery fsyncs once per group commit: every acked record is
	// durable (Commit.Wait reports durable=true).
	FsyncEvery FsyncPolicy = iota
	// FsyncInterval acks after the OS write and fsyncs in the background
	// at most every Options.FsyncInterval: a crash can lose the last
	// interval's records, all of which were acked durable=false.
	FsyncInterval
	// FsyncOff never fsyncs during appends (close still does): the OS
	// page cache decides durability. For benchmarks and bulk loads.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncEvery:
		return "every"
	case FsyncInterval:
		return "interval"
	default:
		return "off"
	}
}

// ParseFsyncPolicy parses the -fsync flag forms: every, interval, off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "every", "":
		return FsyncEvery, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want every, interval or off)", s)
	}
}

// Typed open/recovery errors. Both mean the log's sealed history cannot
// be trusted and must never be silently replayed.
var (
	ErrCorruptManifest = errors.New("wal: manifest hash chain broken")
	ErrCorruptSegment  = errors.New("wal: sealed segment does not match its manifest entry")
	ErrClosed          = errors.New("wal: log closed")
)

// Options configures a Log.
type Options struct {
	// Dir is the log directory (segments, MANIFEST, snapshots).
	Dir string
	// Fsync is the durability policy for appends.
	Fsync FsyncPolicy
	// FsyncInterval is the background sync cadence under FsyncInterval
	// (default 50ms).
	FsyncInterval time.Duration
	// SegmentBytes is the rotation threshold (default 64 MiB). Rotation
	// is checked between group commits, so segments may overshoot by one
	// commit's worth.
	SegmentBytes int64
	// MinOffset raises the log's next record offset at open: recovery
	// passes the latest snapshot's offset so record numbering never
	// collides with records the snapshot already covers but a lax fsync
	// policy lost from the tail.
	MinOffset int64
	// StagedBytes bounds the staged-but-unwritten backlog (default
	// 8 MiB). When the committer cannot keep up, appends block until a
	// flush drains the buffer — bounded memory under sustained overload
	// instead of an unbounded in-process queue.
	StagedBytes int64
	// RetryAttempts is how many times a failed segment write or fsync
	// is retried (with exponential backoff starting at RetryBackoff)
	// before the log fail-stops. Zero preserves strict fail-fast. A
	// partial write resumes where it left off, and accounting (hash,
	// byte counts) tracks exactly the bytes that reached the file, so a
	// final failure leaves a truncatable torn tail, never a mis-hashed
	// segment. Retrying an fsync is only a best effort — a kernel may
	// have dropped the dirty pages the first failure covered — which is
	// why the budget is bounded and exhaustion still fail-stops rather
	// than limping on.
	RetryAttempts int
	// RetryBackoff is the first retry's backoff, doubling per attempt
	// (default 1ms).
	RetryBackoff time.Duration
	// FS overrides the filesystem (fault-injection tests); nil uses OS.
	FS FS
}

const (
	segPrefix     = "seg-"
	segSuffix     = ".wal"
	manifestName  = "MANIFEST"
	snapPrefix    = "snap-"
	snapSuffix    = ".fws"
	snapTmpSuffix = ".tmp"

	defaultSegmentBytes  = 64 << 20
	defaultFsyncInterval = 50 * time.Millisecond
	defaultStagedBytes   = 8 << 20

	// stagedRetain bounds the recycled staging buffer capacity so one
	// burst does not pin its high-water mark for the log's lifetime.
	stagedRetain = 1 << 22
)

// manifestEntry is one line of the MANIFEST file. Op "seal" freezes a
// completed segment under its content hash; op "drop" records that a
// sealed segment was retired by log truncation (its bytes are gone, but
// the chain over its metadata remains verifiable). Chain commits the
// entry and everything before it: sha256(prev chain bytes ‖ the entry's
// JSON with Chain empty).
type manifestEntry struct {
	Seq     int    `json:"seq"`
	Op      string `json:"op"`
	File    string `json:"file"`
	Base    int64  `json:"base"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes,omitempty"`
	Hash    string `json:"hash,omitempty"`
	Prev    string `json:"prev,omitempty"`
	Chain   string `json:"chain"`
}

// chainHash computes an entry's Chain from the previous chain value.
func chainHash(prev []byte, e manifestEntry) string {
	e.Chain = ""
	body, err := json.Marshal(e)
	if err != nil {
		panic("wal: marshaling manifest entry: " + err.Error())
	}
	h := sha256.New()
	h.Write(prev)
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// Commit is one staged record's durability ticket.
type Commit struct {
	offset  int64
	done    chan struct{}
	durable bool
	err     error
}

// Offset is the record's log offset (its replay position).
func (c *Commit) Offset() int64 { return c.offset }

// Wait blocks until the record's group commit completes. durable is true
// when the record is known to be on stable storage (FsyncEvery); under
// the lax policies the record has been written but not yet fsynced. A
// non-nil error means the write failed and the log is fail-stopped.
func (c *Commit) Wait() (durable bool, err error) {
	<-c.done
	return c.durable, c.err
}

// LogStats is a point-in-time counter snapshot for /stats.
type LogStats struct {
	// Appended counts records appended by this process.
	Appended int64
	// Fsyncs counts segment fsyncs issued by this process.
	Fsyncs int64
	// NextOffset is the offset the next appended record will get; equal
	// to the total record count when the numbering has no snapshot gap.
	NextOffset int64
	// Retries counts write/fsync attempts that were retried after a
	// transient failure (degraded-mode telemetry).
	Retries int64
	// StagedPeak is the high-water mark of the staged-but-unwritten
	// backlog in bytes; bounded by Options.StagedBytes plus one record.
	StagedPeak int64
}

// Log is the write-ahead log. Appends are safe for concurrent use;
// Replay must complete before the first Append (the recovery sequence
// does exactly that), and Close must not race Append.
type Log struct {
	opts Options
	fs   FS

	mu         sync.Mutex // guards the staging state below
	drained    sync.Cond  // on mu; signaled when the committer takes staged
	staged     []byte     // encoded frames awaiting the committer
	stagedRecs int64
	waiters    []*Commit
	nextRec    int64
	appended   int64
	err        error // sticky write failure: the log is fail-stopped
	closed     bool
	started    bool

	stagedPeak int64 // high-water mark of len(staged), under mu

	kickCh chan struct{}
	quit   chan struct{}
	done   chan struct{}

	fsyncs  atomic.Int64
	retries atomic.Int64 // write/fsync attempts retried after a failure

	// Committer-owned file state (fileMu only where it meets the
	// manifest: seal/rotate vs TruncateBefore).
	seg       File
	segName   string
	segBase   int64
	segRecs   int64
	segBytes  int64
	segHasher interface {
		io.Writer
		Sum([]byte) []byte
		Reset()
	}
	dirty bool // bytes written since the last fsync

	fileMu      sync.Mutex
	manifest    File
	manifestSeq int
	chain       []byte // last chain hash, raw bytes (nil before any entry)
	sealed      []manifestEntry
}

func segFileName(base int64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, base, segSuffix)
}

func snapFileName(offset int64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, offset, snapSuffix)
}

func parseBase(name, prefix, suffix string) (int64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 63)
	if err != nil {
		return 0, false
	}
	return int64(v), true
}

// Open opens (or creates) the log in opts.Dir, verifying the manifest
// hash chain and every live sealed segment's content hash, and
// truncating a torn tail off the active segment. It fails — rather than
// replaying anything — when the sealed history does not verify.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if opts.StagedBytes <= 0 {
		opts.StagedBytes = defaultStagedBytes
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = time.Millisecond
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OS{}
	}
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{
		opts:      opts,
		fs:        fsys,
		kickCh:    make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		segHasher: sha256.New(),
	}
	l.drained.L = &l.mu

	entries, err := l.readManifest()
	if err != nil {
		return nil, err
	}
	dropped := make(map[string]bool)
	var expectedBase int64
	for _, e := range entries {
		switch e.Op {
		case "seal":
			l.sealed = append(l.sealed, e)
			if end := e.Base + e.Records; end > expectedBase {
				expectedBase = end
			}
		case "drop":
			dropped[e.File] = true
		case "skip":
			// A recorded numbering realignment (see the MinOffset handling
			// below): offsets [expectedBase, e.Base) were covered by a
			// snapshot but lost from the log tail.
			if e.Base > expectedBase {
				expectedBase = e.Base
			}
		default:
			return nil, fmt.Errorf("%w: unknown manifest op %q", ErrCorruptManifest, e.Op)
		}
	}
	live := l.sealed[:0]
	for _, e := range l.sealed {
		if !dropped[e.File] {
			live = append(live, e)
		}
	}
	l.sealed = live
	if err := l.verifySealed(); err != nil {
		return nil, err
	}

	names, err := fsys.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", opts.Dir, err)
	}
	liveNames := make(map[string]bool, len(l.sealed))
	for _, e := range l.sealed {
		liveNames[e.File] = true
	}
	activeName := segFileName(expectedBase)
	for _, name := range names {
		base, ok := parseBase(name, segPrefix, segSuffix)
		if !ok {
			continue
		}
		if liveNames[name] || dropped[name] || name == activeName {
			continue
		}
		return nil, fmt.Errorf("%w: segment %s (base %d) is neither sealed nor the active segment %s",
			ErrCorruptManifest, name, base, activeName)
	}

	// The manifest must be open for append before anything below can
	// seal a segment into it.
	mf, err := fsys.OpenAppend(filepath.Join(opts.Dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("wal: opening manifest: %w", err)
	}
	l.manifest = mf

	// Recover the active segment: scan valid frames, truncate the torn
	// tail, and rebuild its running content hash for a later seal.
	activeRecs, err := l.recoverActive(activeName)
	if err != nil {
		mf.Close()
		return nil, err
	}
	l.segBase = expectedBase
	l.segRecs = activeRecs
	l.nextRec = expectedBase + activeRecs

	if opts.MinOffset > l.nextRec {
		// The numbering must resume at or past the snapshot the caller
		// recovered from, even if a lax fsync policy lost log tail behind
		// it: seal whatever the active segment holds and restart the
		// numbering in a fresh segment at the snapshot offset.
		if l.segRecs > 0 {
			f, err := fsys.OpenAppend(filepath.Join(opts.Dir, l.segName))
			if err != nil {
				mf.Close()
				return nil, fmt.Errorf("wal: reopening active segment: %w", err)
			}
			l.seg = f
			if err := l.sealActive(); err != nil {
				mf.Close()
				return nil, err
			}
		} else if l.segName != "" {
			// recoverActive found an empty active file; leaving it behind
			// would look like an unaccounted segment on the next open.
			if err := fsys.Remove(filepath.Join(opts.Dir, l.segName)); err != nil {
				mf.Close()
				return nil, fmt.Errorf("wal: removing empty segment: %w", err)
			}
		}
		// Record the realignment in the chain, or the next open would
		// compute the old expected base and flag the new active segment
		// as unaccounted for.
		skip := manifestEntry{Op: "skip", Base: opts.MinOffset}
		l.fileMu.Lock()
		err := l.appendManifest(&skip)
		l.fileMu.Unlock()
		if err != nil {
			mf.Close()
			return nil, err
		}
		l.segBase = opts.MinOffset
		l.segRecs, l.segBytes = 0, 0
		l.segHasher.Reset()
		l.nextRec = opts.MinOffset
	}
	if l.seg == nil {
		l.segName = segFileName(l.segBase)
		f, err := fsys.OpenAppend(filepath.Join(opts.Dir, l.segName))
		if err != nil {
			mf.Close()
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		if err := fsys.SyncDir(opts.Dir); err != nil {
			f.Close()
			mf.Close()
			return nil, fmt.Errorf("wal: syncing %s: %w", opts.Dir, err)
		}
		l.seg = f
	}
	return l, nil
}

// readManifest parses and chain-verifies the MANIFEST file. A torn final
// line (a crash during a seal) is truncated away; an invalid line
// anywhere else, or any chain mismatch, is corruption.
func (l *Log) readManifest() ([]manifestEntry, error) {
	path := filepath.Join(l.opts.Dir, manifestName)
	f, err := l.fs.Open(path)
	if err != nil {
		return nil, nil // no manifest yet: empty log
	}
	data, rerr := io.ReadAll(f)
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("wal: reading manifest: %w", rerr)
	}
	var (
		entries []manifestEntry
		prev    []byte
		goodLen int
	)
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No newline: a torn trailing append. Cut it.
			break
		}
		line := data[off : off+nl]
		var e manifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			if off+nl+1 >= len(data) {
				break // unparseable final line: torn append
			}
			return nil, fmt.Errorf("%w: manifest line %d does not parse: %v", ErrCorruptManifest, len(entries)+1, err)
		}
		if e.Seq != len(entries)+1 {
			return nil, fmt.Errorf("%w: manifest line %d carries seq %d", ErrCorruptManifest, len(entries)+1, e.Seq)
		}
		if e.Prev != hex.EncodeToString(prev) {
			return nil, fmt.Errorf("%w: entry %d prev hash mismatch", ErrCorruptManifest, e.Seq)
		}
		if chainHash(prev, e) != e.Chain {
			return nil, fmt.Errorf("%w: entry %d chain hash mismatch", ErrCorruptManifest, e.Seq)
		}
		chainBytes, err := hex.DecodeString(e.Chain)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d chain not hex", ErrCorruptManifest, e.Seq)
		}
		prev = chainBytes
		entries = append(entries, e)
		off += nl + 1
		goodLen = off
	}
	if goodLen < len(data) {
		if err := l.fs.Truncate(path, int64(goodLen)); err != nil {
			return nil, fmt.Errorf("wal: truncating torn manifest tail: %w", err)
		}
	}
	l.manifestSeq = len(entries)
	l.chain = prev
	return entries, nil
}

// verifySealed checks every live sealed segment byte-for-byte against
// its manifest entry.
func (l *Log) verifySealed() error {
	for _, e := range l.sealed {
		path := filepath.Join(l.opts.Dir, e.File)
		size, err := l.fs.Size(path)
		if err != nil {
			return fmt.Errorf("%w: segment %s missing: %v", ErrCorruptSegment, e.File, err)
		}
		if size != e.Bytes {
			return fmt.Errorf("%w: segment %s is %d bytes, manifest says %d", ErrCorruptSegment, e.File, size, e.Bytes)
		}
		f, err := l.fs.Open(path)
		if err != nil {
			return fmt.Errorf("%w: segment %s: %v", ErrCorruptSegment, e.File, err)
		}
		h := sha256.New()
		_, cerr := io.Copy(h, f)
		f.Close()
		if cerr != nil {
			return fmt.Errorf("%w: segment %s: %v", ErrCorruptSegment, e.File, cerr)
		}
		if hex.EncodeToString(h.Sum(nil)) != e.Hash {
			return fmt.Errorf("%w: segment %s content hash mismatch", ErrCorruptSegment, e.File)
		}
	}
	return nil
}

// recoverActive scans the active segment (if present), truncating a
// torn tail: an incomplete final record, or a zero-filled tail left by
// a crashed filesystem. Garbage that is neither is corruption. It
// returns the number of valid records and leaves the file closed (Open
// reopens it for append) with the running hash primed.
func (l *Log) recoverActive(name string) (int64, error) {
	path := filepath.Join(l.opts.Dir, name)
	f, err := l.fs.Open(path)
	if err != nil {
		return 0, nil // not created yet
	}
	data, rerr := io.ReadAll(f)
	f.Close()
	if rerr != nil {
		return 0, fmt.Errorf("wal: reading active segment: %w", rerr)
	}
	valid := 0
	recs := int64(0)
	rest := data
	for len(rest) > 0 {
		_, next, err := wire.Decode(rest)
		if err != nil {
			if errors.Is(err, wire.ErrShort) || allZero(rest) {
				break // torn or zero-filled tail: truncate
			}
			return 0, fmt.Errorf("%w: active segment %s invalid at byte %d: %v",
				ErrCorruptSegment, name, valid, err)
		}
		valid = len(data) - len(next)
		rest = next
		recs++
	}
	if valid < len(data) {
		if err := l.fs.Truncate(path, int64(valid)); err != nil {
			return 0, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	l.segName = name
	l.segBytes = int64(valid)
	l.segHasher.Reset()
	l.segHasher.Write(data[:valid])
	return recs, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// Append stages one event batch as a single record and returns its
// commit ticket. The events are encoded before Append returns, so the
// caller may recycle the slice immediately.
func (l *Log) Append(events []stream.Event) (*Commit, error) {
	if len(events) > wire.MaxFrameRows {
		return nil, fmt.Errorf("wal: batch of %d events exceeds the %d-row record bound", len(events), wire.MaxFrameRows)
	}
	return l.stage(func(dst []byte) []byte { return wire.AppendEventFrame(dst, events) })
}

// AppendControl stages one control record (a registry mutation) with
// the given payload.
func (l *Log) AppendControl(payload []byte) (*Commit, error) {
	return l.stage(func(dst []byte) []byte { return wire.AppendControlFrame(dst, 0, payload) })
}

func (l *Log) stage(enc func([]byte) []byte) (*Commit, error) {
	l.mu.Lock()
	for {
		if l.closed {
			l.mu.Unlock()
			return nil, ErrClosed
		}
		if l.err != nil {
			err := l.err
			l.mu.Unlock()
			return nil, fmt.Errorf("wal: log fail-stopped: %w", err)
		}
		if int64(len(l.staged)) < l.opts.StagedBytes {
			break
		}
		// Backpressure: the committer is behind the appenders. Block
		// until a flush drains the staging buffer so the backlog stays
		// bounded instead of queueing without limit in memory.
		l.drained.Wait()
	}
	l.staged = enc(l.staged)
	if n := int64(len(l.staged)); n > l.stagedPeak {
		l.stagedPeak = n
	}
	l.stagedRecs++
	c := &Commit{offset: l.nextRec, done: make(chan struct{})}
	l.nextRec++
	l.appended++
	l.waiters = append(l.waiters, c)
	if !l.started {
		l.started = true
		go l.run()
	}
	l.mu.Unlock()
	select {
	case l.kickCh <- struct{}{}:
	default:
	}
	return c, nil
}

// run is the committer loop: each pass writes everything staged since
// the last one in a single segment write (and one fsync under
// FsyncEvery), acks the covered tickets, and rotates the segment when
// it crossed the size threshold. Under FsyncInterval a ticker syncs
// written-but-unsynced bytes in the background.
func (l *Log) run() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.opts.Fsync == FsyncInterval {
		t := time.NewTicker(l.opts.FsyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-l.quit:
			return
		case <-tick:
			l.syncNow()
		case <-l.kickCh:
			l.flush()
		}
	}
}

// flush performs one group commit.
func (l *Log) flush() {
	l.mu.Lock()
	buf, ws, recs := l.staged, l.waiters, l.stagedRecs
	l.staged = nil
	l.waiters = nil
	l.stagedRecs = 0
	l.drained.Broadcast()
	l.mu.Unlock()
	if len(buf) == 0 && len(ws) == 0 {
		return
	}

	var err error
	if len(buf) > 0 {
		if err = l.writeRetry(buf); err == nil {
			l.segRecs += recs
		}
	}
	durable := false
	if err == nil && l.opts.Fsync == FsyncEvery && l.dirty {
		if err = l.syncRetry(); err == nil {
			durable = true
		}
	}
	// Rotate before acking: a ticket's channel close is the only
	// happens-before edge appenders get, so every committer-state
	// mutation — including rotation's — must precede it (Replay reads
	// the active-segment fields after commits are acked). A rotation
	// failure does not taint these tickets: their records are already
	// written (and fsynced, under every) in the still-unsealed segment,
	// which recovery replays as the active tail; later appends hit the
	// fail-stop.
	var rotateErr error
	if err == nil && l.segBytes >= l.opts.SegmentBytes && l.segRecs > 0 {
		rotateErr = l.rotate()
	}
	if err != nil {
		// Fail-stop before acking: a waiter that sees its commit fail
		// must also see Err() report it.
		l.fail(err)
	}
	for _, c := range ws {
		c.durable, c.err = durable, err
		close(c.done)
	}
	if err != nil {
		return
	}
	if rotateErr != nil {
		l.fail(rotateErr)
		return
	}
	if cap(buf) <= stagedRetain {
		l.mu.Lock()
		if l.staged == nil {
			l.staged = buf[:0]
		}
		l.mu.Unlock()
	}
}

// writeRetry writes buf to the active segment, resuming after partial
// writes and retrying transient failures up to the configured budget.
// The hasher, byte count, and dirty flag track exactly the bytes that
// reached the file, so an eventual failure leaves a truncatable torn
// tail — never a segment whose recorded hash disagrees with its bytes.
func (l *Log) writeRetry(buf []byte) error {
	backoff := l.opts.RetryBackoff
	attempts := 0
	for len(buf) > 0 {
		n, err := l.seg.Write(buf)
		if n > 0 {
			l.segHasher.Write(buf[:n])
			l.segBytes += int64(n)
			l.dirty = true
			buf = buf[n:]
		}
		if len(buf) == 0 {
			// Every byte landed; any error that rode along is moot.
			return nil
		}
		if err == nil {
			if n > 0 {
				continue // short write with progress: resume at once
			}
			err = io.ErrShortWrite // zero-progress nil-error writer
		}
		if attempts >= l.opts.RetryAttempts {
			return err
		}
		attempts++
		l.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
	return nil
}

// syncRetry fsyncs the active segment, retrying transient failures up
// to the configured budget. A successful sync clears the dirty flag;
// exhaustion returns the last error for the caller to fail-stop on.
func (l *Log) syncRetry() error {
	backoff := l.opts.RetryBackoff
	for attempts := 0; ; attempts++ {
		err := l.seg.Sync()
		if err == nil {
			l.fsyncs.Add(1)
			l.dirty = false
			return nil
		}
		if attempts >= l.opts.RetryAttempts {
			return err
		}
		l.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// syncNow flushes written-but-unsynced bytes (FsyncInterval's ticker and
// Close both land here).
func (l *Log) syncNow() {
	if !l.dirty || l.seg == nil {
		return
	}
	if err := l.syncRetry(); err != nil {
		l.fail(err)
	}
}

// fail fail-stops the log: the sticky error rejects every later append,
// and any tickets staged after the failing write are acked with it.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	ws := l.waiters
	l.waiters = nil
	l.staged = nil
	l.stagedRecs = 0
	l.drained.Broadcast()
	l.mu.Unlock()
	for _, c := range ws {
		c.durable, c.err = false, err
		close(c.done)
	}
}

// rotate seals the active segment and opens the next one.
func (l *Log) rotate() error {
	if err := l.sealActive(); err != nil {
		return err
	}
	base := l.segBase + l.segRecs
	name := segFileName(base)
	f, err := l.fs.OpenAppend(filepath.Join(l.opts.Dir, name))
	if err != nil {
		return fmt.Errorf("wal: opening segment %s: %w", name, err)
	}
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s: %w", l.opts.Dir, err)
	}
	l.seg = f
	l.segName = name
	l.segBase = base
	l.segRecs, l.segBytes = 0, 0
	l.segHasher.Reset()
	l.dirty = false
	return nil
}

// sealActive fsyncs the active segment and records it in the manifest
// under its content hash. The segment's bytes must be durable before
// the manifest asserts their hash, so the seal always syncs regardless
// of the append policy. The caller arranges for the next segment (or
// closes the log).
func (l *Log) sealActive() error {
	if err := l.syncRetry(); err != nil {
		return fmt.Errorf("wal: syncing segment before seal: %w", err)
	}
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	l.seg = nil
	e := manifestEntry{
		Op:      "seal",
		File:    l.segName,
		Base:    l.segBase,
		Records: l.segRecs,
		Bytes:   l.segBytes,
		Hash:    hex.EncodeToString(l.segHasher.Sum(nil)),
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if err := l.appendManifest(&e); err != nil {
		return err
	}
	l.sealed = append(l.sealed, e)
	return nil
}

// appendManifest chains and durably appends one entry. Callers hold
// fileMu.
func (l *Log) appendManifest(e *manifestEntry) error {
	e.Seq = l.manifestSeq + 1
	e.Prev = hex.EncodeToString(l.chain)
	e.Chain = chainHash(l.chain, *e)
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("wal: marshaling manifest entry: %w", err)
	}
	if _, err := l.manifest.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("wal: appending manifest entry: %w", err)
	}
	if err := l.manifest.Sync(); err != nil {
		return fmt.Errorf("wal: syncing manifest: %w", err)
	}
	chainBytes, _ := hex.DecodeString(e.Chain)
	l.chain = chainBytes
	l.manifestSeq = e.Seq
	return nil
}

// Record is one replayed log record: its offset and the decoded frame
// view (valid only during the callback, like any wire.Frame).
type Record struct {
	Offset int64
	Frame  wire.Frame
}

// Replay streams every record with offset >= from, sealed segments
// first, then the recovered active segment, in offset order. It must
// not overlap in-flight appends: recovery runs it before the first
// Append, and any later replay must wait until every outstanding
// commit has been acked (Wait returned).
func (l *Log) Replay(from int64, fn func(Record) error) error {
	entries := append([]manifestEntry(nil), l.sealed...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].Base < entries[j].Base })
	for _, e := range entries {
		if e.Base+e.Records <= from {
			continue
		}
		if err := l.replaySegment(e.File, e.Base, from, fn); err != nil {
			return err
		}
	}
	if l.segRecs > 0 && l.segBase+l.segRecs > from {
		if err := l.replaySegment(l.segName, l.segBase, from, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(name string, base, from int64, fn func(Record) error) error {
	f, err := l.fs.Open(filepath.Join(l.opts.Dir, name))
	if err != nil {
		return fmt.Errorf("wal: opening segment %s for replay: %w", name, err)
	}
	defer f.Close()
	fr := wire.NewReader(f)
	defer fr.Close()
	for off := base; ; off++ {
		frame, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: segment %s record %d: %w", name, off, err)
		}
		if off < from {
			continue
		}
		if err := fn(Record{Offset: off, Frame: frame}); err != nil {
			return err
		}
	}
}

// TruncateBefore retires every sealed segment that lies entirely below
// offset — typically the offset of a freshly written snapshot. Each
// removal is first recorded as a chained "drop" manifest entry, so the
// hash chain stays verifiable over the full history even though the
// segment bytes are gone. The active segment is never truncated.
func (l *Log) TruncateBefore(offset int64) error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	kept := l.sealed[:0]
	var firstErr error
	for _, e := range l.sealed {
		if firstErr != nil || e.Base+e.Records > offset {
			kept = append(kept, e)
			continue
		}
		drop := manifestEntry{Op: "drop", File: e.File, Base: e.Base, Records: e.Records}
		if err := l.appendManifest(&drop); err != nil {
			firstErr = err
			kept = append(kept, e)
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.opts.Dir, e.File)); err != nil {
			// The drop entry is durable; a leftover file is garbage the
			// next open ignores (dropped set), not corruption.
			firstErr = fmt.Errorf("wal: removing %s: %w", e.File, err)
		}
	}
	l.sealed = kept
	return firstErr
}

// NextOffset is the offset the next appended record will receive; a
// snapshot taken now should be stamped with it.
func (l *Log) NextOffset() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextRec
}

// Stats reports the log's counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	appended, next, stagedPeak := l.appended, l.nextRec, l.stagedPeak
	l.mu.Unlock()
	return LogStats{
		Appended:   appended,
		Fsyncs:     l.fsyncs.Load(),
		NextOffset: next,
		Retries:    l.retries.Load(),
		StagedPeak: stagedPeak,
	}
}

// Err reports the sticky failure, if the log has fail-stopped.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close drains staged records, fsyncs, and — when seal is true — seals
// the active segment into the manifest so a clean shutdown leaves the
// entire log hash-chained. It returns the first flush failure; callers
// treat that as a failed shutdown (fwserve exits non-zero).
func (l *Log) Close(seal bool) error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true
	started := l.started
	l.drained.Broadcast()
	l.mu.Unlock()
	if started {
		close(l.quit)
		<-l.done
	}
	l.flush() // anything staged after the committer's final pass
	var firstErr error
	l.mu.Lock()
	firstErr = l.err
	l.mu.Unlock()
	if l.seg != nil {
		if firstErr == nil && l.dirty {
			if err := l.syncRetry(); err != nil {
				firstErr = fmt.Errorf("wal: final sync: %w", err)
			}
		}
		if firstErr == nil && seal && l.segRecs > 0 {
			if err := l.sealActive(); err != nil {
				firstErr = err
			}
		}
		if l.seg != nil {
			if err := l.seg.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			l.seg = nil
		}
	}
	if l.manifest != nil {
		if err := l.manifest.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		l.manifest = nil
	}
	return firstErr
}

// --- Snapshots ---

// snapMagic heads every snapshot file; the trailer is sha256 over the
// offset and payload, so a flipped byte anywhere is detected at load.
var snapMagic = []byte("FWWALSNAP1\n")

// WriteSnapshot durably writes an offset-stamped state snapshot beside
// the log (temp file, fsync, atomic rename, directory fsync). A
// snapshot at offset N asserts the state reflects records [0, N).
func WriteSnapshot(fsys FS, dir string, offset int64, data []byte) error {
	if fsys == nil {
		fsys = OS{}
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	tmp := filepath.Join(dir, snapFileName(offset)+snapTmpSuffix)
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(offset))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(data)))
	h := sha256.New()
	h.Write(hdr[:8])
	h.Write(data)
	werr := writeAll(f, snapMagic, hdr[:], data, h.Sum(nil))
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: writing snapshot: %w", werr)
	}
	final := filepath.Join(dir, snapFileName(offset))
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", dir, err)
	}
	return nil
}

func writeAll(f File, chunks ...[]byte) error {
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// LatestSnapshot loads the newest snapshot in dir. A missing directory
// or no snapshots returns (0, nil, nil). A snapshot that fails its
// checksum is corruption and is reported, not skipped: snapshots are
// published by atomic rename, so a half-written one can never carry the
// snap-*.fws name legitimately.
func LatestSnapshot(fsys FS, dir string) (offset int64, data []byte, err error) {
	if fsys == nil {
		fsys = OS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, nil, nil
	}
	best := int64(-1)
	bestName := ""
	for _, name := range names {
		if off, ok := parseBase(name, snapPrefix, snapSuffix); ok && off > best {
			best, bestName = off, name
		}
	}
	if best < 0 {
		return 0, nil, nil
	}
	payload, err := readSnapshot(fsys, filepath.Join(dir, bestName), best)
	if err != nil {
		return 0, nil, err
	}
	return best, payload, nil
}

func readSnapshot(fsys FS, path string, wantOffset int64) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: opening snapshot: %w", err)
	}
	raw, rerr := io.ReadAll(f)
	f.Close()
	if rerr != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", rerr)
	}
	if len(raw) < len(snapMagic)+16+sha256.Size || !bytes.Equal(raw[:len(snapMagic)], snapMagic) {
		return nil, fmt.Errorf("wal: snapshot %s: not a snapshot file", filepath.Base(path))
	}
	body := raw[len(snapMagic):]
	offset := int64(binary.LittleEndian.Uint64(body[0:]))
	size := binary.LittleEndian.Uint64(body[8:])
	body = body[16:]
	if uint64(len(body)) != size+sha256.Size {
		return nil, fmt.Errorf("wal: snapshot %s: truncated", filepath.Base(path))
	}
	payload, sum := body[:size], body[size:]
	h := sha256.New()
	var off8 [8]byte
	binary.LittleEndian.PutUint64(off8[:], uint64(offset))
	h.Write(off8[:])
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), sum) {
		return nil, fmt.Errorf("wal: snapshot %s: checksum mismatch", filepath.Base(path))
	}
	if offset != wantOffset {
		return nil, fmt.Errorf("wal: snapshot %s: stamped offset %d does not match its name", filepath.Base(path), offset)
	}
	return payload, nil
}

// PruneSnapshots removes all but the newest keep snapshots.
func PruneSnapshots(fsys FS, dir string, keep int) error {
	if fsys == nil {
		fsys = OS{}
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var offs []int64
	var firstErr error
	for _, name := range names {
		if off, ok := parseBase(name, snapPrefix, snapSuffix); ok {
			offs = append(offs, off)
		} else if strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapTmpSuffix) {
			// A crash mid-write leaves the temp file behind; it never
			// carries the published suffix, so removing it is always safe.
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(offs) <= keep {
		return firstErr
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] > offs[j] })
	for _, off := range offs[keep:] {
		if err := fsys.Remove(filepath.Join(dir, snapFileName(off))); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
