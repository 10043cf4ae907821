package wal

import (
	"fmt"
	"runtime"
	"time"
)

// Group commit: the durable policies (SyncAlways, SyncInterval) never fsync
// per append. AppendAsync frames the record into the writer's open batch
// under qmu and returns a Commit ticket; durability happens when a leader
// seals the batch, writes it with one Write call, issues one fsync, and
// wakes every ticket the batch covered.
//
// Leader election is the flush mutex: under SyncAlways the first waiter to
// acquire flushMu becomes the leader and followers piggyback (they block on
// flushMu or the batch's done channel and find their batch already
// committed); under SyncInterval a background committer drains the batch on
// a ticker and appenders do not wait at all — the crash-loss window is the
// tick.
//
// Invariant (what makes "wait on the last ticket covers the whole group"
// sound, see store.bulkApply): batches seal and complete strictly in append
// order. cur is replaced only by flushLocked, which writes, fsyncs, and
// closes the old batch's done channel before flushMu is released, so a
// later batch can never commit — or fail — ahead of an earlier one. A
// failed flush latches w.err, and every subsequent batch fails with that
// sticky error without writing, so durability errors cannot be skipped
// over.

// batch is one group-commit unit: framed records from consecutive
// AppendAsync calls, flushed with a single write+fsync.
type batch struct {
	buf    []byte
	count  int
	maxKey uint64
	done   chan struct{} // closed once the batch is committed or failed
	err    error         // valid after done is closed
}

// Commit is the durability ticket AppendAsync returns. The zero Commit is
// already durable (ungrouped policies, memory sinks): Wait returns nil
// immediately.
type Commit struct {
	w *Writer
	b *batch
}

// Wait blocks until the record's covering batch is fsynced (becoming the
// flush leader if nobody else is) and returns the batch outcome. Safe to
// call from any goroutine, at most once per ticket's appender plus any
// number of observers; waiting on a later ticket from the same writer also
// guarantees durability of every earlier one.
func (c Commit) Wait() error {
	if c.b == nil {
		return nil
	}
	return c.w.commitWait(c.b)
}

// AppendAsync frames and enqueues one record. Under ungrouped policies it
// writes directly (page cache) and returns a zero Commit. Under SyncAlways
// it returns a ticket the caller must Wait on for durability; under
// SyncInterval it returns a zero Commit (the background committer makes the
// record durable within the interval). Like Append, key must be
// non-decreasing and calls must come from one goroutine at a time.
func (w *Writer) AppendAsync(key uint64, payload []byte) (Commit, error) {
	if !w.opts.Sync.grouped() {
		w.mu.Lock()
		err := w.appendLocked(key, payload)
		w.mu.Unlock()
		if err == nil {
			w.nAppends.Add(1)
		}
		return Commit{}, err
	}
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
	b.count++
	if key > b.maxKey {
		b.maxKey = key
	}
	w.qmu.Unlock()
	w.nAppends.Add(1)
	if w.opts.Sync.mode == modeAlways {
		return Commit{w: w, b: b}, nil
	}
	return Commit{}, nil
}

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
		// A leader (or the interval committer) covered us while we queued.
		w.flushMu.Unlock()
		return b.err
	default:
	}
	// Leader: while flushMu is held any uncommitted batch must still be
	// w.cur (seal and completion happen without releasing flushMu), so
	// flushing the current batch flushes b.
	//
	// Before sealing, linger while the batch is still growing: each yield
	// lets the appenders the previous flush just woke (runnable but not yet
	// scheduled) frame their records into this batch, so one fsync covers
	// the whole convoy. Without it, a blocking fsync on a single-P runtime
	// stalls every other appender and batches collapse to one record.
	//
	// The linger is adaptive: it stops once the batch reaches the writer's
	// lifetime mean occupancy (appends per batch so far) — the batch has
	// already collected a typical convoy, so further yields trade latency
	// for marginal coverage — or the first time a yield adds nothing, with
	// the fixed yield budget as a backstop. An uncontended writer's mean
	// sits at one record per batch, so it skips the linger entirely; a
	// convoyed writer's mean grows with the observed group size and keeps
	// the full linger.
	target := 1
	if batches := w.nBatches.Load(); batches > 0 {
		target = int(w.nAppends.Load() / batches)
	}
	w.qmu.Lock()
	prev := b.count
	w.qmu.Unlock()
	for i := 0; i < 4 && prev < target; i++ {
		runtime.Gosched()
		w.qmu.Lock()
		n := b.count
		w.qmu.Unlock()
		if n == prev {
			break
		}
		prev = n
	}
	w.flushLocked()
	w.flushMu.Unlock()
	return b.err
}

// flushLocked seals the open batch, writes it with one fsync, and wakes its
// waiters. Caller holds flushMu. Returns the batch outcome (or the sticky
// error when there is nothing to flush).
func (w *Writer) flushLocked() error {
	w.qmu.Lock()
	b := w.cur
	w.cur = nil
	err := w.err
	w.qmu.Unlock()
	if b == nil {
		return err
	}
	if err == nil {
		err = w.writeBatch(b)
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

// writeBatch writes a sealed batch under w.mu: one Write, one fsync, then
// rotation if the segment crossed the threshold.
func (w *Writer) writeBatch(b *batch) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("wal: append on closed writer")
	}
	if _, err := w.f.Write(b.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(b.buf))
	if b.maxKey > w.maxKey {
		w.maxKey = b.maxKey
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	w.nBatches.Add(1)
	w.nSyncs.Add(1)
	if w.size >= w.opts.segmentBytes() {
		return w.rotateLocked()
	}
	return nil
}

// intervalLoop is the SyncInterval background committer: it drains the open
// batch every tick. Flush errors latch w.err and surface on the next
// Append/Sync/Close.
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
			w.flushLocked()
			w.flushMu.Unlock()
		}
	}
}
