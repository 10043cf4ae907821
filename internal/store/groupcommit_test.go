package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/wal"
)

// groupCommitWorkload drives appenders concurrent goroutines, each
// inserting opsPer workers with disjoint IDs. Content is a pure function of
// (goroutine, step), so any interleaving commits the same record set — only
// version assignment varies with scheduling.
func groupCommitWorkload(t *testing.T, s *Store, u *model.Universe, appenders, opsPer int) {
	t.Helper()
	errs := make([]error, appenders)
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				w := &model.Worker{
					ID:       model.WorkerID(fmt.Sprintf("gw%02d-%03d", g, i)),
					Declared: model.Attributes{"country": model.Str("jp")},
					Computed: model.Attributes{"acceptance_ratio": model.Num(float64((g+i)%10) / 10)},
					Skills:   u.MustVector(u.Names()[(g+i)%u.Size()]),
				}
				if err := s.PutWorker(w); err != nil {
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
}

// walMutationsByVersion decodes every surviving WAL record under dir, in
// log order — the canonical commit order a recovery replays.
func walMutationsByVersion(t *testing.T, dir string) []Mutation {
	t.Helper()
	var out []Mutation
	r, err := wal.OpenDir(WALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		key, payload, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		m, err := decodeMutation(key, append([]byte(nil), payload...), walEpoch)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
}

// checkGroupRecovery opens a (possibly damaged) durable store written under
// a group-commit policy and asserts it recovered exactly the longest
// dense version prefix: version, changelog density, and
// entity state equal to replaying that prefix of the canonical records.
func checkGroupRecovery(t *testing.T, trial string, u *model.Universe, recs []Mutation, opts wal.Options, label string) {
	t.Helper()
	surviving := survivingVersions(t, trial)
	wantVer := uint64(0)
	for surviving[wantVer+1] {
		wantVer++
	}
	got, _, err := OpenDurable(trial, opts)
	if err != nil {
		t.Fatalf("%s: open: %v", label, err)
	}
	defer got.Close()
	if got.Version() != wantVer {
		t.Fatalf("%s: recovered version %d, want longest dense prefix %d", label, got.Version(), wantVer)
	}
	changes, ok := got.ChangesSince(0)
	if !ok {
		t.Fatalf("%s: changelog truncated", label)
	}
	if uint64(len(changes)) != wantVer {
		t.Fatalf("%s: changelog has %d records, want %d", label, len(changes), wantVer)
	}
	for i, c := range changes {
		if c.Version != uint64(i+1) {
			t.Fatalf("%s: gap at position %d (version %d)", label, i, c.Version)
		}
	}
	want := New(u)
	for _, m := range recs {
		if m.Change.Version > wantVer {
			break
		}
		if err := want.applyReplay(m); err != nil {
			t.Fatalf("%s: replay v%d: %v", label, m.Change.Version, err)
		}
	}
	if snapBytes(t, got) != snapBytes(t, want) {
		t.Fatalf("%s: recovered state differs from dense-prefix replay to v%d", label, wantVer)
	}
}

// TestGroupCommitTornTailTorture is the crash-consistency contract for
// batched commits: concurrent appenders fill batches under each grouped
// sync policy, then the tail segment is truncated at every byte offset —
// including mid-batch, where one Write carried several frames — and
// recovery must land on exactly the longest dense version prefix with state
// equal to replaying those records.
func TestGroupCommitTornTailTorture(t *testing.T) {
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval(time.Millisecond)} {
		t.Run(pol.String(), func(t *testing.T) {
			u := testUniverse()
			base := t.TempDir()
			opts := wal.Options{SegmentBytes: 256, Sync: pol}
			ds, err := CreateDurable(u, base, opts)
			if err != nil {
				t.Fatal(err)
			}
			groupCommitWorkload(t, ds, u, 4, 12)
			st := ds.WALStats()
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Appends == 0 {
				t.Fatal("workload appended nothing through the WAL")
			}
			recs := walMutationsByVersion(t, base)
			if uint64(len(recs)) != 48 {
				t.Fatalf("canonical record set has %d records, want 48", len(recs))
			}

			seg := lastSegmentWithTail(t, base)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(base, seg)
			if err != nil {
				t.Fatal(err)
			}
			size := int(info.Size())
			stride := 1
			if testing.Short() {
				stride = 7
			}
			for cut := 0; cut <= size; cut += stride {
				trial := copyTree(t, base)
				if err := os.Truncate(filepath.Join(trial, rel), int64(cut)); err != nil {
					t.Fatal(err)
				}
				checkGroupRecovery(t, trial, u, recs, opts, fmt.Sprintf("truncate@%d", cut))
			}
		})
	}
}

// TestGroupCommitRecoveryDeterminism pins the cross-policy determinism
// contract: the same workload committed under every sync policy and
// appender concurrency recovers to exactly the in-memory state the primary
// held at close, and — since record content is scheduling-independent —
// single-appender runs recover byte-identical snapshots across all three
// policies.
func TestGroupCommitRecoveryDeterminism(t *testing.T) {
	u := testUniverse()
	policies := []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval(time.Millisecond), wal.SyncAlways}
	for _, conc := range []int{1, 4} {
		var serialSnap string
		for _, pol := range policies {
			label := fmt.Sprintf("conc=%d/%s", conc, pol)
			base := t.TempDir()
			opts := wal.Options{SegmentBytes: 512, Sync: pol}
			ds, err := CreateDurable(u, base, opts)
			if err != nil {
				t.Fatal(err)
			}
			groupCommitWorkload(t, ds, u, conc, 24/conc)
			live := snapBytes(t, ds)
			liveVer := ds.Version()
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			got, _, err := OpenDurable(base, opts)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			if got.Version() != liveVer {
				t.Fatalf("%s: recovered version %d, want %d", label, got.Version(), liveVer)
			}
			if snapBytes(t, got) != live {
				t.Fatalf("%s: recovered snapshot differs from pre-close state", label)
			}
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			if conc == 1 {
				if serialSnap == "" {
					serialSnap = live
				} else if live != serialSnap {
					t.Fatalf("%s: serial snapshot differs across sync policies", label)
				}
			}
		}
	}
}
