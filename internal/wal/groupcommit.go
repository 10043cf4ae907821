package wal

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Group commit is the writer's one append path. AppendAsync frames the
// record into the writer's open batch under qmu and returns a Commit
// ticket; a leader later seals the batch, writes it with one Write call
// (one per segment when it crosses a rotation), fsyncs it when the policy
// is durable, and wakes every ticket the batch covered.
//
// The sync policy decides two things only. Whether the appender waits:
// under SyncNever and SyncAlways the ticket is live and Wait makes its
// caller the flush leader unless another leader covered the batch first
// (followers block on flushMu or the batch's done channel and find their
// batch already written); under SyncInterval the ticket is zero and a
// background committer drains the batch on a ticker — the crash-loss
// window is the tick. And whether a flush fsyncs: SyncInterval and
// SyncAlways do, SyncNever leaves the written batch to the OS.
//
// Invariant (what makes "wait on the last ticket covers the whole group"
// sound, see store.bulkApply): batches seal and complete strictly in append
// order. cur is replaced only by flushLocked, which writes (and fsyncs)
// and closes the old batch's done channel before flushMu is released, so
// a later batch can never commit — or fail — ahead of an earlier one. A
// failed flush latches w.err, and every subsequent append and batch fails
// with that sticky error without writing, so write errors cannot be
// skipped over.

// batch is one group-commit unit: framed records from consecutive
// AppendAsync calls, flushed together by writeBatch.
type batch struct {
	buf  []byte
	done chan struct{} // closed once the batch is committed or failed
	err  error         // valid after done is closed
}

// Commit is the ticket AppendAsync returns. The zero Commit (SyncInterval
// appends) has nothing to wait for: Wait returns nil immediately.
type Commit struct {
	w *Writer
	b *batch
}

// Wait blocks until the record's covering batch is written — and fsynced
// under SyncAlways — becoming the flush leader if nobody else is, and
// returns the batch outcome. Safe to call from any goroutine, at most
// once per ticket's appender plus any number of observers; waiting on a
// later ticket from the same writer also covers every earlier one.
func (c Commit) Wait() error {
	if c.b == nil {
		return nil
	}
	return c.w.commitWait(c.b)
}

// AppendAsync frames and enqueues one record into the open batch. Under
// SyncNever and SyncAlways it returns a ticket the caller Waits on for the
// batch write (and, under SyncAlways, its fsync); under SyncInterval it
// returns a zero Commit (the background committer writes the record within
// the interval). key must be non-decreasing across appends (store versions
// and event sequence numbers are), and calls must come from one goroutine
// at a time.
func (w *Writer) AppendAsync(key uint64, payload []byte) (Commit, error) {
	w.qmu.Lock()
	if w.closed {
		w.qmu.Unlock()
		return Commit{}, fmt.Errorf("wal: append on closed writer")
	}
	if w.err != nil {
		err := w.err
		w.qmu.Unlock()
		return Commit{}, err
	}
	b := w.cur
	if b == nil {
		b = &batch{done: make(chan struct{})}
		w.cur = b
	}
	b.buf = AppendFrame(b.buf, key, payload)
	w.qmu.Unlock()
	w.nAppends.Add(1)
	if w.opts.Sync.mode == modeInterval {
		return Commit{}, nil
	}
	return Commit{w: w, b: b}, nil
}

// fsyncs reports whether the policy fsyncs each batch it writes.
func (w *Writer) fsyncs() bool { return w.opts.Sync.mode != modeNever }

// commitWait blocks until b is committed, flushing it as leader if it is
// still pending once flushMu is acquired.
func (w *Writer) commitWait(b *batch) error {
	select {
	case <-b.done:
		return b.err
	default:
	}
	w.flushMu.Lock()
	select {
	case <-b.done:
		// Another leader (or Sync, Rotate or Close) covered us while we
		// queued.
		w.flushMu.Unlock()
		return b.err
	default:
	}
	// Leader: while flushMu is held any uncommitted batch must still be
	// w.cur (seal and completion happen without releasing flushMu), so
	// flushing the current batch flushes b. Appenders that arrive while
	// the leader writes join the next batch.
	w.flushLocked(w.fsyncs())
	w.flushMu.Unlock()
	return b.err
}

// flushLocked seals the open batch, writes it (fsyncing it when fsync is
// set), and wakes its waiters. Caller holds flushMu. Returns the batch
// outcome (or the sticky error when there is nothing to flush).
func (w *Writer) flushLocked(fsync bool) error {
	w.qmu.Lock()
	b := w.cur
	w.cur = nil
	err := w.err
	w.qmu.Unlock()
	if b == nil {
		return err
	}
	if err == nil {
		err = w.writeBatch(b, fsync)
		if err != nil {
			w.qmu.Lock()
			if w.err == nil {
				w.err = err
			}
			w.qmu.Unlock()
		}
	}
	b.err = err
	close(b.done)
	return err
}

// writeBatch writes a sealed batch under w.mu and rotates the way a
// record-at-a-time writer would: the active segment is sealed right after
// the record that takes it to the threshold, so segment boundaries do not
// depend on how appends were grouped, and a batch that crosses the
// threshold is written in pieces. With fsync set every piece is fsynced
// before its segment is sealed or the batch completes.
func (w *Writer) writeBatch(b *batch, fsync bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("wal: append on closed writer")
	}
	for buf := b.buf; len(buf) > 0; {
		n, maxKey := w.piece(buf)
		if _, err := w.f.Write(buf[:n]); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		w.size += int64(n)
		w.maxKey = max(w.maxKey, maxKey)
		if fsync {
			if err := w.f.Sync(); err != nil {
				return fmt.Errorf("wal: sync: %w", err)
			}
			w.nSyncs.Add(1)
		}
		if w.size >= w.opts.segmentBytes() {
			if err := w.rotateLocked(); err != nil {
				return err
			}
		}
		buf = buf[n:]
	}
	w.nBatches.Add(1)
	return nil
}

// piece returns the length of buf's leading frames up to and including the
// first that brings the active segment to the rotation threshold (all of
// buf when none does), and the highest key among them. Caller holds w.mu.
func (w *Writer) piece(buf []byte) (n int, maxKey uint64) {
	room := w.opts.segmentBytes() - w.size
	for n < len(buf) {
		key, _ := binary.Uvarint(buf[n+headerBytes:])
		maxKey = max(maxKey, key)
		n += headerBytes + int(binary.LittleEndian.Uint32(buf[n:]))
		if int64(n) >= room {
			break
		}
	}
	return n, maxKey
}

// intervalLoop is the SyncInterval background committer: it drains the open
// batch every tick. Flush errors latch w.err and surface on the next
// AppendAsync, Sync or Close.
func (w *Writer) intervalLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.Sync.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.flushMu.Lock()
			w.flushLocked(true)
			w.flushMu.Unlock()
		}
	}
}
