package wal

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCloseSyncsTailRegardlessOfPolicy is the regression test for the
// SyncNever Close hole: a clean shutdown must fsync the sealed tail even
// when the policy never fsyncs during appends, so a close-then-crash loses
// nothing that Close reported as kept.
func TestCloseSyncsTailRegardlessOfPolicy(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNever, SyncInterval(time.Millisecond), SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Create(dir, Options{Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				if err := w.Append(uint64(i), []byte("payload")); err != nil {
					t.Fatal(err)
				}
			}
			before := w.Stats().Syncs
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			if st.Syncs <= before {
				t.Fatalf("Close issued no fsync under %s (syncs %d before, %d after)", pol, before, st.Syncs)
			}
			if st.Appends != 5 {
				t.Fatalf("stats count %d appends, want 5", st.Appends)
			}
			keys, _, damaged := readAll(t, dir)
			if damaged || len(keys) != 5 {
				t.Fatalf("reopened log has %d records (damaged=%v), want 5 clean", len(keys), damaged)
			}
		})
	}
}

// TestGroupCommitConcurrentAppends hammers AppendAsync+Wait from many
// goroutines under SyncAlways and asserts every record survives, disk order
// is a permutation of the appended set, and the leader/follower path
// actually grouped appends (fewer batches than appends).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const (
		appenders = 8
		perG      = 25
	)
	// Keys must be non-decreasing across AppendAsync calls, so hand them
	// out from a shared counter under a mutex, enqueueing while it is held.
	var (
		mu   sync.Mutex
		next uint64
		wg   sync.WaitGroup
	)
	errs := make([]error, appenders)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				mu.Lock()
				next++
				key := next
				c, err := w.AppendAsync(key, []byte(fmt.Sprintf("r%04d", key)))
				mu.Unlock()
				if err == nil {
					err = c.Wait()
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", g, err)
		}
	}
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Appends != appenders*perG {
		t.Fatalf("stats count %d appends, want %d", st.Appends, appenders*perG)
	}
	if st.Batches == 0 || st.Batches > st.Appends {
		t.Fatalf("implausible batch count %d for %d appends", st.Batches, st.Appends)
	}
	keys, payloads, damaged := readAll(t, dir)
	if damaged || len(keys) != appenders*perG {
		t.Fatalf("log holds %d records (damaged=%v), want %d", len(keys), damaged, appenders*perG)
	}
	for i, k := range keys {
		if k != uint64(i+1) {
			t.Fatalf("record %d has key %d, want %d (disk order must equal key order)", i, k, i+1)
		}
		if string(payloads[i]) != fmt.Sprintf("r%04d", k) {
			t.Fatalf("record %d payload %q does not match its key", i, payloads[i])
		}
	}
}

// TestSyncIntervalFlushesWithoutWait pins the interval contract: appends
// ack immediately (zero ticket) and the background committer makes them
// readable from disk within a few ticks without any Sync call.
func TestSyncIntervalFlushesWithoutWait(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, Options{Sync: SyncInterval(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		c, err := w.AppendAsync(uint64(i), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil { // zero ticket: must return nil instantly
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if w.Stats().Syncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval committer issued no fsync within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	keys, _, damaged := readAll(t, dir)
	if damaged || len(keys) != 10 {
		t.Fatalf("log holds %d records (damaged=%v), want 10", len(keys), damaged)
	}
}

// TestZeroCommitWait pins the zero-ticket contract relied on by memory
// sinks and replay paths.
func TestZeroCommitWait(t *testing.T) {
	var c Commit
	if err := c.Wait(); err != nil {
		t.Fatalf("zero Commit.Wait() = %v, want nil", err)
	}
}

// TestParseSyncPolicyInterval covers the interval:<duration> syntax and
// rejects strings that name no policy.
func TestParseSyncPolicyInterval(t *testing.T) {
	p, err := ParseSyncPolicy("interval:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if p != SyncInterval(2*time.Millisecond) {
		t.Fatalf("parsed %v, want interval:2ms", p)
	}
	if p == SyncInterval(3*time.Millisecond) {
		t.Fatal("distinct intervals compared equal")
	}
	d, err := ParseSyncPolicy("interval")
	if err != nil {
		t.Fatal(err)
	}
	if d != SyncInterval(0) {
		t.Fatalf("bare interval parsed as %v, want the default interval", d)
	}
	for _, bad := range []string{"interval:nonsense", "rotate", ""} {
		if _, err := ParseSyncPolicy(bad); err == nil {
			t.Fatalf("ParseSyncPolicy(%q) parsed without error", bad)
		}
	}
}
