// Package wal implements the segmented write-ahead log underneath the
// store's per-shard changelogs and the event log's durable tee.
//
// A log is a directory of append-only segment files (seg-00000001.wal,
// seg-00000002.wal, ...). Each record is framed as
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// where the payload starts with the record's uvarint-encoded key (the
// store version or event sequence number, monotonically non-decreasing)
// followed by the caller's opaque bytes. The CRC covers the whole payload,
// so a torn or corrupted tail is detected record-by-record: readers stop
// at the first invalid frame and recover exactly the longest valid prefix,
// and a Writer reopening an existing directory truncates the damaged tail
// before appending, so the log never grows past a hole.
//
// Segments rotate once the active file reaches Options.SegmentBytes. The
// writer remembers each completed segment's maximum key, which is what
// checkpoint truncation uses: TruncateBefore(k) unlinks every completed
// segment whose records are all at or below k — the per-shard low-water
// version — without ever touching the active segment.
//
// Every append takes one path, group commit (groupcommit.go): the record
// is framed into the writer's open batch, and one Write puts the whole
// batch in the active segment. The sync policy (Options.Sync) decides only
// whether the appender waits for that write and whether it fsyncs:
// SyncNever waits for the write but never fsyncs (a process crash loses
// nothing acknowledged, a power failure loses what the OS had not
// flushed), SyncInterval(d) acks at once and a background committer
// writes and fsyncs the batch every d (durable within d), and SyncAlways
// waits for the write and its fsync.
//
// Readers: Reader replays a directory from its first retained segment; it
// is how recovery and a replica's catch-up read another process's log. A
// reader over a live log sees a frame still being written as a torn tail
// and stops before it, and a segment a writer's TruncateBefore unlinks
// between the reader's listing and its read fails the read with an error
// the caller retries.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// syncMode is the discriminant of a SyncPolicy.
type syncMode uint8

const (
	modeNever syncMode = iota
	modeInterval
	modeAlways
)

// SyncPolicy selects whether an appender waits for its batch's write and
// whether a batch write fsyncs. Policies are comparable values: use the
// package variables (SyncNever, SyncAlways) or the SyncInterval
// constructor.
type SyncPolicy struct {
	mode     syncMode
	interval time.Duration
}

// Sync policies, weakest to strongest. The zero value is SyncNever.
var (
	// SyncNever acks an append once its batch is written to the segment
	// file and never fsyncs while appending; the OS flushes at its leisure
	// (Close still syncs the tail so checkpoints never manifest a
	// watermark ahead of the disk).
	SyncNever = SyncPolicy{mode: modeNever}
	// SyncAlways acks every append only after a covering group fsync: each
	// record is durable when its Commit.Wait returns, but one fsync
	// commits every record enqueued while the previous fsync ran.
	SyncAlways = SyncPolicy{mode: modeAlways}
)

// DefaultSyncInterval is the flush cadence SyncInterval uses when given a
// non-positive duration, and what ParseSyncPolicy("interval") yields.
const DefaultSyncInterval = 5 * time.Millisecond

// SyncInterval returns the amortised-durability policy: appends ack
// immediately and a background committer writes and fsyncs the
// accumulated batch every d, so a crash loses at most the last d of
// acknowledged appends.
func SyncInterval(d time.Duration) SyncPolicy {
	if d <= 0 {
		d = DefaultSyncInterval
	}
	return SyncPolicy{mode: modeInterval, interval: d}
}

// String renders the policy for reports and flag parsing; SyncInterval
// renders as "interval:<dur>".
func (p SyncPolicy) String() string {
	switch p.mode {
	case modeAlways:
		return "always"
	case modeInterval:
		return "interval:" + p.interval.String()
	default:
		return "never"
	}
}

// ParseSyncPolicy maps the String form back to a policy. "interval" alone
// means SyncInterval(DefaultSyncInterval); "interval:<dur>" (e.g.
// "interval:2ms") sets the cadence explicitly.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval(0), nil
	}
	if rest, ok := strings.CutPrefix(s, "interval:"); ok {
		d, err := time.ParseDuration(rest)
		if err != nil || d <= 0 {
			return SyncNever, fmt.Errorf("wal: bad sync interval %q (want e.g. interval:5ms)", s)
		}
		return SyncInterval(d), nil
	}
	return SyncNever, fmt.Errorf("wal: unknown sync policy %q (want never|interval[:<dur>]|always)", s)
}

// DefaultSegmentBytes is the rotation threshold used when Options leaves
// SegmentBytes zero: large enough that steady-state appends amortise file
// creation, small enough that checkpoint truncation reclaims space promptly.
const DefaultSegmentBytes = 4 << 20

// maxRecordBytes guards readers against interpreting garbage as a huge
// length prefix.
const maxRecordBytes = 64 << 20

// Options parameterises a log directory.
type Options struct {
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one started (0: DefaultSegmentBytes).
	SegmentBytes int64
	// Sync is the fsync policy (default SyncNever).
	Sync SyncPolicy
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

// frame header: payload length + CRC.
const headerBytes = 8

// segInfo describes one sealed segment.
type segInfo struct {
	ordinal int
	maxKey  uint64
}

// Writer appends records to a segment directory. AppendAsync may be
// called from one goroutine at a time (the store serialises appends under
// each shard's lock), but it runs concurrently with the group-commit
// flusher and with Commit.Wait from any goroutine; the maintenance methods
// (Sync, Rotate, TruncateBefore, Close, Stats) are safe to call from any
// goroutine as well.
//
// Lock order: flushMu → qmu, flushMu → mu. flushMu serialises batch
// seal+write+fsync and is never held while waiting on anything but the
// disk; qmu guards only the open batch; mu guards the file/segment state.
type Writer struct {
	dir  string
	opts Options

	// mu guards the file/segment state below; batch flushes write under it.
	mu     sync.Mutex
	f      *os.File
	seg    int   // active segment ordinal
	size   int64 // bytes written to the active segment
	maxKey uint64
	sealed []segInfo // completed segments, ascending ordinal

	// Group-commit state; see groupcommit.go.
	qmu     sync.Mutex // guards cur, err, closed
	cur     *batch     // open batch accepting appends (nil when empty)
	err     error      // sticky flush error; fails all later operations
	closed  bool       // set by Close before the final flush
	flushMu sync.Mutex // serialises seal+write+fsync (leader election)
	stop    chan struct{}
	done    chan struct{}

	nAppends atomic.Uint64
	nBatches atomic.Uint64
	nSyncs   atomic.Uint64
}

// WriterStats counts a writer's lifetime activity. Appends/Batches is the
// group-commit occupancy; Appends/Syncs the fsync amortisation factor
// (SyncNever fsyncs only in Sync and Close).
type WriterStats struct {
	Appends uint64 // records accepted
	Batches uint64 // group-commit batches written
	Syncs   uint64 // fsyncs issued
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() WriterStats {
	return WriterStats{
		Appends: w.nAppends.Load(),
		Batches: w.nBatches.Load(),
		Syncs:   w.nSyncs.Load(),
	}
}

// segPath returns the file path of segment ordinal n in dir.
func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", n))
}

// listSegments returns the ordinals of the segment files in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	var ords []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%d.wal", &n); err == nil && e.Name() == fmt.Sprintf("seg-%08d.wal", n) {
			ords = append(ords, n)
		}
	}
	sort.Ints(ords)
	return ords, nil
}

// scanSegment walks a segment file frame by frame, returning the byte
// length of the longest valid prefix, the maximum key seen, and whether an
// invalid frame (torn tail, corruption) cut the scan short.
func scanSegment(path string) (validLen int64, maxKey uint64, damaged bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: scan %s: %w", path, err)
	}
	off := int64(0)
	for {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			return off, maxKey, next != int64(len(data)) || off != int64(len(data)), nil
		}
		key, _, ok := recordKey(payload)
		if !ok {
			return off, maxKey, true, nil
		}
		if key > maxKey {
			maxKey = key
		}
		off = next
	}
}

// nextFrame validates the frame starting at off. ok=false means no valid
// frame starts there; next then reports len(data) only when the file ended
// exactly at off (clean end).
func nextFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off == int64(len(data)) {
		return nil, off, false
	}
	if int64(len(data))-off < headerBytes {
		return nil, off, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if n == 0 || n > maxRecordBytes || off+headerBytes+n > int64(len(data)) {
		return nil, off, false
	}
	payload = data[off+headerBytes : off+headerBytes+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, false
	}
	return payload, off + headerBytes + n, true
}

// recordKey splits a payload into its key prefix and the caller bytes. A
// padded (non-minimal) key is invalid: AppendFrame never writes one.
func recordKey(payload []byte) (key uint64, rest []byte, ok bool) {
	key, n := binary.Uvarint(payload)
	if !minimalVarint(payload, n) {
		return 0, nil, false
	}
	return key, payload[n:], true
}

// Create opens the log directory for appending, creating it if needed. An
// existing directory is recovered first: every segment is scanned, the
// first invalid frame truncates its segment to the longest valid prefix,
// and any later segments (which would sit past the hole) are deleted, so
// appends always continue a dense valid log.
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", dir, err)
	}
	w := &Writer{dir: dir, opts: opts, seg: 1}
	ords, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, ord := range ords {
		path := segPath(dir, ord)
		validLen, maxKey, damaged, err := scanSegment(path)
		if err != nil {
			return nil, err
		}
		if damaged {
			if err := os.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			for _, later := range ords[i+1:] {
				if err := os.Remove(segPath(dir, later)); err != nil {
					return nil, fmt.Errorf("wal: drop post-hole segment: %w", err)
				}
			}
		}
		w.seg = ord
		w.size = validLen
		if maxKey > w.maxKey {
			w.maxKey = maxKey
		}
		if damaged {
			break
		}
		if i < len(ords)-1 {
			w.sealed = append(w.sealed, segInfo{ordinal: ord, maxKey: maxKey})
		}
	}
	if err := w.openActive(); err != nil {
		return nil, err
	}
	if opts.Sync.mode == modeInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.intervalLoop()
	}
	return w, nil
}

// openActive opens the current segment file for appending.
func (w *Writer) openActive() error {
	f, err := os.OpenFile(segPath(w.dir, w.seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	w.f = f
	return nil
}

// AppendFrame frames one record (header + uvarint key + payload) onto dst —
// the writer's own framing, exported so a caller can build a whole segment
// image in memory (the store's checkpoint snapshot) that SegmentReader reads
// back.
func AppendFrame(dst []byte, key uint64, payload []byte) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = binary.AppendUvarint(dst, key)
	dst = append(dst, payload...)
	body := dst[base+headerBytes:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(body))
	return dst
}

// Rotate seals the active segment and starts the next one, flushing any
// pending group-commit batch first. Sealing an empty segment is a no-op.
// Checkpoints rotate before truncating so the whole pre-checkpoint history
// becomes eligible for TruncateBefore.
func (w *Writer) Rotate() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if err := w.flushLocked(w.fsyncs()); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotateLocked()
}

// rotateLocked seals the active segment under the held w.mu. It issues no
// fsync: under a durable policy writeBatch fsynced every piece it wrote
// into the segment.
func (w *Writer) rotateLocked() error {
	if w.f == nil {
		return fmt.Errorf("wal: rotate on closed writer")
	}
	if w.size == 0 {
		return nil
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	w.sealed = append(w.sealed, segInfo{ordinal: w.seg, maxKey: w.maxKey})
	w.seg++
	w.size = 0
	return w.openActive()
}

// TruncateBefore unlinks every sealed segment whose keys are all at or
// below key. The active segment is never removed.
func (w *Writer) TruncateBefore(key uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := w.sealed[:0]
	for _, s := range w.sealed {
		if s.maxKey <= key {
			if err := os.Remove(segPath(w.dir, s.ordinal)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	return nil
}

// TruncateAfter physically removes every record with key > key from the
// log directory: the containing segment is cut at the first such record
// and all later segments are deleted. Recovery uses it to discard a tail
// that lost global density (a torn record in one shard's log invalidates
// every higher version across shards), so that writers reopened afterwards
// append immediately after the last surviving record. A damaged frame cuts
// at the damage point as well.
func TruncateAfter(dir string, key uint64) error {
	ords, err := listSegments(dir)
	if err != nil {
		return err
	}
	for idx, ord := range ords {
		path := segPath(dir, ord)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: truncate-after scan: %w", err)
		}
		cut := int64(-1)
		off := int64(0)
		for {
			payload, next, ok := nextFrame(data, off)
			if !ok {
				if off != int64(len(data)) {
					cut = off // damaged frame: cut here too
				}
				break
			}
			k, _, ok := recordKey(payload)
			if !ok || k > key {
				cut = off
				break
			}
			off = next
		}
		if cut < 0 {
			continue
		}
		if err := os.Truncate(path, cut); err != nil {
			return fmt.Errorf("wal: truncate-after: %w", err)
		}
		for _, later := range ords[idx+1:] {
			if err := os.Remove(segPath(dir, later)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("wal: truncate-after drop segment: %w", err)
			}
		}
		return nil
	}
	return nil
}

// Sync writes and fsyncs everything accepted so far — pending group-commit
// batch included — regardless of policy.
func (w *Writer) Sync() error {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.qmu.Lock()
	pending := w.cur != nil
	sticky := w.err
	w.qmu.Unlock()
	if pending {
		return w.flushLocked(true)
	}
	if sticky != nil {
		return sticky
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.nSyncs.Add(1)
	return nil
}

// Close stops the background committer, writes any pending batch, syncs
// the tail — regardless of policy, so a checkpoint manifest written after
// Close never references a watermark ahead of what is durable on disk —
// and closes the active segment. The writer is unusable afterwards.
func (w *Writer) Close() error {
	w.qmu.Lock()
	alreadyClosed := w.closed
	w.closed = true
	w.qmu.Unlock()
	if !alreadyClosed && w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.flushMu.Lock()
	flushErr := w.flushLocked(w.fsyncs())
	w.flushMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return flushErr
	}
	serr := w.f.Sync()
	if serr == nil {
		w.nSyncs.Add(1)
	}
	cerr := w.f.Close()
	w.f = nil
	if flushErr != nil {
		return flushErr
	}
	if serr != nil {
		return fmt.Errorf("wal: sync on close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}
