package store_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/crowdfair"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/wal"
)

// TestOpenRefusesForeignLayout pins the refusal of the hash-partitioned
// layouts: a format-3 directory at width 8 as the sharded store wrote it
// (manifest, wal/shard-0000…0007/, binary snapshot), a format-2 one (JSON
// snapshot), and a format-3 one written by online resharding (epoch 2, an
// epoch log, epoch-qualified WAL directories). store.OpenDurable,
// store.Bootstrap and crowdfair.OpenPlatformWAL each refuse every one with
// an error naming its format, and leave every file byte-identical.
func TestOpenRefusesForeignLayout(t *testing.T) {
	base := t.TempDir()
	u := model.MustUniverse("go", "sql")
	st, err := store.CreateDurable(u, base, wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutRequester(&model.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	addWorkers := func(from, to int) {
		for i := from; i < to; i++ {
			w := &model.Worker{ID: model.WorkerID(fmt.Sprintf("w%02d", i)), Skills: u.MustVector("go")}
			if err := st.PutWorker(w); err != nil {
				t.Fatal(err)
			}
		}
	}
	addWorkers(0, 20)
	man, err := st.Checkpoint(store.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jsonSnap, err := st.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	addWorkers(20, 40)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	binSnap, err := os.ReadFile(filepath.Join(base, man.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	segs, err := wal.Segments(store.WALDir(base))
	if err != nil || len(segs) == 0 {
		t.Fatalf("%d store segments (%v)", len(segs), err)
	}

	// legacy writes a width-8 directory: the manifest, the snapshot, and
	// the store's segments in the first of eight WAL directories.
	legacy := func(t *testing.T, manifest map[string]any, snapName string, snap []byte, walDir func(i int) string) string {
		dir := t.TempDir()
		manifest["skills"] = u.Names()
		manifest["shards"] = 8
		manifest["version"] = man.Version
		manifest["watermarks"] = []uint64{man.Version, 0, 0, 0, 0, 0, 0, 0}
		manifest["low_water"] = []uint64{man.Version, 0, 0, 0, 0, 0, 0, 0}
		manifest["snapshot"] = snapName
		data, err := json.Marshal(manifest)
		if err != nil {
			t.Fatal(err)
		}
		write(t, filepath.Join(dir, "MANIFEST.json"), data)
		write(t, filepath.Join(dir, snapName), snap)
		for i := 0; i < 8; i++ {
			if err := os.MkdirAll(filepath.Join(store.WALDir(dir), walDir(i)), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for _, seg := range segs {
			data, err := os.ReadFile(seg.Path)
			if err != nil {
				t.Fatal(err)
			}
			write(t, filepath.Join(store.WALDir(dir), walDir(0), filepath.Base(seg.Path)), data)
		}
		return dir
	}
	shardDir := func(i int) string { return fmt.Sprintf("shard-%04d", i) }
	jsonName := strings.TrimSuffix(man.Snapshot, ".bin") + ".json"

	cases := []struct {
		name   string
		format int
		dir    func(t *testing.T) string
	}{
		{"format-3", 3, func(t *testing.T) string {
			return legacy(t, map[string]any{"format": 3, "epoch": 1}, man.Snapshot, binSnap, shardDir)
		}},
		{"format-2", 2, func(t *testing.T) string {
			return legacy(t, map[string]any{"format": 2}, jsonName, jsonSnap, shardDir)
		}},
		{"resharded", 3, func(t *testing.T) string {
			return legacy(t, map[string]any{
				"format": 3, "epoch": 2,
				"epochs": []map[string]any{{"epoch": 2, "width": 8, "version": man.Version}},
			}, man.Snapshot, binSnap, func(i int) string { return fmt.Sprintf("e0002-shard-%04d", i) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := c.dir(t)
			before := tree(t, dir)
			want := fmt.Sprintf("format %d (8 shards", c.format)
			refused := func(who string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: %v, want a refusal naming %q", who, err, want)
				}
			}
			_, _, err := store.OpenDurable(dir, wal.Options{})
			refused("store.OpenDurable", err)
			_, _, err = store.Bootstrap(dir)
			refused("store.Bootstrap", err)
			_, err = crowdfair.OpenPlatformWAL(dir, nil, crowdfair.DefaultAuditConfig(), crowdfair.WALOptions{})
			refused("crowdfair.OpenPlatformWAL", err)
			if after := tree(t, dir); !reflect.DeepEqual(after, before) {
				t.Error("a refused open changed the directory")
			}
		})
	}
}

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tree maps every path under root to its bytes ("/" for a directory).
func tree(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			out[rel] = "/"
			return nil
		}
		data, err := os.ReadFile(path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
