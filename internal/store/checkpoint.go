package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/model"
	"repro/internal/wal"
)

// Durable store layout (format 3), rooted at one directory:
//
//	dir/
//	  MANIFEST.json           checkpoint manifest: a few hundred bytes of
//	                          JSON naming the two files below (atomic rename)
//	  snapshot-<version>.bin  entity state at the last checkpoint: one WAL
//	                          segment image of insert records (snapcodec.go)
//	  audit-<version>.bin     the incremental auditor's warm state at that
//	                          checkpoint, opaque to the store (absent when
//	                          the checkpoint carried none)
//	  wal/shard-0000/...      per-shard segmented changelog WAL (epoch 1)
//	  wal/e0002-shard-0000/.. per-shard WAL of later route epochs
//	  events/...              the event log's segments (internal/eventlog)
//
// NewDurable creates the layout and writes a version-0 manifest so Open
// always finds the universe. Checkpoint freezes the store (all shard read
// locks — mutators block for the duration), writes the snapshot, then the
// audit sidecar, then renames the new manifest over the old one — the
// commit point: a crash before it leaves the old manifest naming the old
// pair, and the files written so far are orphans the next checkpoint
// sweeps, as it sweeps the pair it replaces. Only then does it truncate WAL
// segments below the per-shard low-water version: the minimum of the shard
// watermark and the auditor's changelog cursor, so a warm-started auditor
// still finds every record it needs.
// Open rebuilds from the snapshot and replays the WAL tail in globally
// merged version order, preserving original version numbers, stopping at
// the first version gap (a torn record in any shard invalidates every
// higher version) and physically truncating the discarded tail so appends
// continue a dense log. A Reshard (reshard.go) starts writing under a new
// epoch's directories and records the width change in the manifest's epoch
// log, so recovery merges streams across the reshard boundary; directories
// of earlier epochs persist until the next checkpoint covers their records.
//
// A format-2 directory (snapshot-<version>.json holding model.Snapshot's
// JSON, the auditor state embedded in the manifest) still opens: the
// snapshot decoder is chosen by the file name the manifest records, and the
// embedded state is ignored, so that auditor cold-starts once. Its next
// checkpoint writes format 3 and sweeps the JSON snapshot.

// manifestFormat versions the on-disk layout. Format 2 added the route
// epoch and the epoch-change log; format 3 moved the snapshot to the binary
// frame codec and the auditor state out of the manifest into a sidecar.
// Manifests are always written as manifestFormat; oldestManifestFormat is
// the oldest still read.
const (
	manifestFormat       = 3
	oldestManifestFormat = 2
)

// EpochChange is one entry of the manifest's epoch log: a completed width
// change and the sequencer value it happened at. Every version at or below
// Version was routed by an earlier epoch; later versions may carry Epoch.
type EpochChange struct {
	Epoch   uint64 `json:"epoch"`
	Width   int    `json:"width"`
	Version uint64 `json:"version"`
}

// Manifest is the checkpoint metadata of a durable store.
type Manifest struct {
	// Format is the layout version (manifestFormat).
	Format int `json:"format"`
	// Skills reproduces the universe so Open needs no out-of-band schema.
	Skills []string `json:"skills"`
	// Shards is the hash-partition count the current epoch's WAL
	// directories correspond to.
	Shards int `json:"shards"`
	// Epoch is the route-table generation the store was last running under
	// (1 for a store that never resharded).
	Epoch uint64 `json:"epoch,omitempty"`
	// Epochs is the log of completed width changes, oldest first.
	Epochs []EpochChange `json:"epochs,omitempty"`
	// Version is the global mutation sequencer at checkpoint; the snapshot
	// reflects exactly the mutations with versions 1..Version.
	Version uint64 `json:"version"`
	// Watermarks are the per-shard highest recorded versions at checkpoint.
	Watermarks []uint64 `json:"watermarks,omitempty"`
	// LowWater are the per-shard versions below which WAL segments may have
	// been truncated; a changelog cursor at or above its shard's low-water
	// can be warm-started from the recovered rings.
	LowWater []uint64 `json:"low_water,omitempty"`
	// Snapshot names the snapshot file this manifest pairs with (empty for
	// the version-0 manifest NewDurable writes). Snapshots are written
	// under version-stamped names and the manifest renamed over last, so a
	// crash between the two steps leaves the old manifest pointing at the
	// old snapshot — never a mismatched pair.
	Snapshot string `json:"snapshot,omitempty"`
	// Events is the event-log length at checkpoint (informational; the
	// event WAL is never truncated because cold audits replay it whole).
	Events int `json:"events,omitempty"`
	// AuditFile names the sidecar holding the incremental audit engine's
	// encoded state (opaque to the store; read back by audit.LoadState),
	// valid against the changelog cursors that fed LowWater. Empty when the
	// checkpoint carried none. Written before the manifest, like Snapshot.
	AuditFile string `json:"audit_file,omitempty"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "MANIFEST.json") }

func snapshotName(version uint64) string {
	return fmt.Sprintf("snapshot-%016d.bin", version)
}

func auditName(version uint64) string {
	return fmt.Sprintf("audit-%016d.bin", version)
}

// WALDir returns the changelog WAL root under a durable store directory.
func WALDir(dir string) string { return filepath.Join(dir, "wal") }

// EventsDir returns the conventional event-log segment directory under a
// durable platform directory (owned by internal/eventlog, placed here so
// every layer agrees on the layout).
func EventsDir(dir string) string { return filepath.Join(dir, "events") }

// walShardDir names one shard's WAL directory. Epoch 1 keeps the bare
// shard-%04d layout (what every pre-reshard store wrote); later epochs are
// qualified so an 8→16 split cannot collide with the old epoch's still-live
// directories of the same shard index.
func walShardDir(dir string, epoch uint64, i int) string {
	if epoch <= 1 {
		return filepath.Join(WALDir(dir), fmt.Sprintf("shard-%04d", i))
	}
	return filepath.Join(WALDir(dir), fmt.Sprintf("e%04d-shard-%04d", epoch, i))
}

// writeFileAtomic writes data to path via a temp file, fsync, and rename,
// so readers never observe a half-written manifest or snapshot.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Exists reports whether dir already holds a durable store (a manifest).
func Exists(dir string) bool {
	_, err := os.Stat(manifestPath(dir))
	return err == nil
}

// ReadManifest loads the manifest of a durable store directory.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	if m.Format < oldestManifestFormat || m.Format > manifestFormat {
		return nil, fmt.Errorf("store: manifest format %d, want %d..%d", m.Format, oldestManifestFormat, manifestFormat)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("store: manifest shard count %d", m.Shards)
	}
	return &m, nil
}

func writeManifest(dir string, m *Manifest) error {
	m.Format = manifestFormat
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	if err := writeFileAtomic(manifestPath(dir), data); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

// NewDurable returns an empty store whose shards tee every mutation into a
// segmented write-ahead log under dir. The directory must not already hold
// a durable store (use Open to recover one).
func NewDurable(u *model.Universe, shards int, dir string, opts wal.Options) (*Store, error) {
	if _, err := os.Stat(manifestPath(dir)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a durable store (use Open)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := NewSharded(u, shards)
	s.dir, s.walOpts = dir, opts
	rt := s.table()
	for i, sh := range rt.shards {
		sink, err := newWALSink(walShardDir(dir, rt.epoch, i), opts)
		if err != nil {
			return nil, err
		}
		sh.wal = sink
	}
	m := &Manifest{Skills: u.Names(), Shards: rt.width(), Epoch: rt.epoch}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the persistence root ("" for a volatile store).
func (s *Store) Dir() string { return s.dir }

// Durable reports whether mutations are teed into a write-ahead log.
func (s *Store) Durable() bool { return s.dir != "" }

// EpochLog returns the completed width changes of this store's lifetime,
// oldest first (nil for a store that never resharded).
func (s *Store) EpochLog() []EpochChange {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return append([]EpochChange(nil), s.epochs...)
}

// SyncWAL flushes every shard's durable sink to stable storage.
func (s *Store) SyncWAL() error {
	_, _, shs := s.view()
	for _, sh := range shs {
		sh.mu.Lock()
		var err error
		if sh.wal != nil {
			err = sh.wal.Sync()
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// WALStats aggregates the append/batch/fsync counters of every live
// shard sink — zero for volatile stores. Appends/Syncs is the realised
// group-commit amortisation.
func (s *Store) WALStats() wal.WriterStats {
	var agg wal.WriterStats
	_, _, shs := s.view()
	for _, sh := range shs {
		sh.mu.RLock()
		if ws, ok := sh.wal.(*walSink); ok && ws != nil {
			st := ws.Stats()
			agg.Appends += st.Appends
			agg.Batches += st.Batches
			agg.Syncs += st.Syncs
		}
		sh.mu.RUnlock()
	}
	return agg
}

// Close closes every shard's durable sink and detaches it. The store
// stays fully usable in memory afterwards — reads and even mutations
// succeed — but durability ends: post-Close mutations are never written
// to the WAL and will be absent after the next Open.
func (s *Store) Close() error {
	// ckptMu excludes a concurrent Reshard, which creates and rewires
	// sinks; without it a mid-migration Close could miss a brand-new one.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	var firstErr error
	for _, sh := range s.table().shards {
		sh.mu.Lock()
		if sh.wal != nil {
			if err := sh.wal.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.wal = nil
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// CheckpointOptions carries the cross-subsystem state a checkpoint pins
// alongside the store snapshot.
type CheckpointOptions struct {
	// Audit is the incremental auditor's encoded state (opaque blob), written
	// to the manifest's AuditFile sidecar; empty writes none.
	Audit []byte
	// AuditCursors are the per-shard changelog cursors the audit state was
	// saved at; they lower the per-shard low-water so warm-start replay
	// still finds every record between cursor and watermark. Ignored unless
	// one cursor per shard is supplied.
	AuditCursors []uint64
	// Events is the current event-log length, recorded for observability.
	Events int
}

// Checkpoint freezes the store, writes snapshot, audit sidecar and manifest
// (in that order) under the store's directory, and truncates WAL segments
// that both the snapshot and the audit cursors have passed. Mutators block
// for the duration (they need shard write locks); readers proceed. Returns
// the new manifest.
func (s *Store) Checkpoint(o CheckpointOptions) (*Manifest, error) {
	if s.dir == "" {
		return nil, fmt.Errorf("store: checkpoint of a volatile store")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// ckptMu excludes Reshard for its whole migration, so no successor
	// table exists here: the current table's shards are the entire store.
	rt := s.table()
	shs := rt.shards
	for _, sh := range shs {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range shs {
			sh.mu.RUnlock()
		}
	}()

	m := &Manifest{
		Skills:     s.universe.Names(),
		Shards:     len(shs),
		Epoch:      rt.epoch,
		Epochs:     append([]EpochChange(nil), s.epochs...),
		Version:    s.version.Load(),
		Watermarks: make([]uint64, len(shs)),
		LowWater:   make([]uint64, len(shs)),
		Snapshot:   snapshotName(s.version.Load()),
		Events:     o.Events,
	}
	for i, sh := range shs {
		m.Watermarks[i] = sh.applied
		m.LowWater[i] = sh.applied
		if len(o.AuditCursors) == len(shs) && o.AuditCursors[i] < m.LowWater[i] {
			m.LowWater[i] = o.AuditCursors[i]
		}
	}

	if err := writeFileAtomic(filepath.Join(s.dir, m.Snapshot), encodeSnapshotFrames(s.snapshot(shs))); err != nil {
		return nil, fmt.Errorf("store: write snapshot: %w", err)
	}
	if len(o.Audit) > 0 {
		m.AuditFile = auditName(m.Version)
		if err := writeFileAtomic(filepath.Join(s.dir, m.AuditFile), o.Audit); err != nil {
			return nil, fmt.Errorf("store: write audit state: %w", err)
		}
	}
	if err := writeManifest(s.dir, m); err != nil {
		return nil, err
	}
	// The manifest now names the new pair; every other snapshot or sidecar
	// (the replaced pair, a format-2 JSON snapshot, the leavings of an
	// interrupted checkpoint) is an orphan.
	for _, pattern := range []string{"snapshot-*", "audit-*"} {
		files, err := filepath.Glob(filepath.Join(s.dir, pattern))
		if err != nil {
			continue
		}
		for _, f := range files {
			if name := filepath.Base(f); name != m.Snapshot && name != m.AuditFile {
				if err := os.Remove(f); err != nil {
					return nil, fmt.Errorf("store: drop stale checkpoint file: %w", err)
				}
			}
		}
	}

	// The manifest is durable: segments at or below each shard's low-water
	// are dead. Rotate first so the active segment becomes truncatable too.
	// All mutators are blocked on the shard locks, so touching the sinks
	// here is race-free.
	live := make(map[string]bool, len(shs))
	for i, sh := range shs {
		live[filepath.Base(walShardDir(s.dir, rt.epoch, i))] = true
		ws, ok := sh.wal.(*walSink)
		if !ok || ws == nil {
			continue
		}
		if err := ws.w.Sync(); err != nil {
			return nil, err
		}
		if err := ws.w.Rotate(); err != nil {
			return nil, err
		}
		if err := ws.w.TruncateBefore(m.LowWater[i]); err != nil {
			return nil, err
		}
	}
	// Directories of retired epochs (and of widths beyond the current one)
	// hold only records the snapshot now covers: remove everything that is
	// not a live sink's directory.
	if dirs, err := os.ReadDir(WALDir(s.dir)); err == nil {
		for _, e := range dirs {
			if e.IsDir() && !live[e.Name()] {
				if err := os.RemoveAll(filepath.Join(WALDir(s.dir), e.Name())); err != nil {
					return nil, fmt.Errorf("store: drop retired shard wal: %w", err)
				}
			}
		}
	}
	return m, nil
}

// replayStream is one shard directory's decoded mutation stream during
// recovery, consumed in version order by the k-way merge.
type replayStream struct {
	r       *wal.Reader
	head    Mutation
	hasHead bool
}

func (rs *replayStream) advance() error {
	key, payload, err := rs.r.Next()
	if err == io.EOF {
		rs.hasHead = false
		return nil
	}
	if err != nil {
		return err
	}
	m, err := decodeMutation(key, payload)
	if err != nil {
		// A CRC-valid but undecodable record is a hole just like a torn
		// frame: stop this stream at the longest valid prefix.
		rs.hasHead = false
		return nil
	}
	rs.head = m
	rs.hasHead = true
	return nil
}

// primaryID returns the mutated entity's own id, the shard-routing key.
func (m *Mutation) primaryID() string { return changePrimaryID(m.Change) }

// setEpoch re-stamps a not-yet-published store (recovery only: no
// concurrent access) with the given route epoch.
func (s *Store) setEpoch(epoch uint64) {
	rt := s.route.Load()
	for _, sh := range rt.shards {
		sh.epoch = epoch
	}
	s.route.Store(newRouteTable(epoch, rt.shards))
}

// openSnapshot rebuilds the checkpointed entity state (or an empty store)
// from a manifest at the given shard width. The snapshot's file name picks
// its decoder: .json is a format-2 directory's model.Snapshot document,
// anything else the frame codec.
func openSnapshot(dir string, man *Manifest, shards int) (*Store, error) {
	if man.Snapshot != "" {
		data, err := os.ReadFile(filepath.Join(dir, man.Snapshot))
		if err != nil {
			return nil, fmt.Errorf("store: read snapshot: %w", err)
		}
		decode := decodeSnapshotFrames
		if strings.HasSuffix(man.Snapshot, ".json") {
			decode = model.DecodeSnapshot
		}
		snap, err := decode(data)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		s, err := FromSnapshotSharded(snap, shards)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		return s, nil
	}
	u, err := model.NewUniverse(man.Skills...)
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	return NewSharded(u, shards), nil
}

// Open recovers a durable store from dir: the checkpoint snapshot is
// rebuilt through the bulk insert paths, then the WAL tail — every epoch's
// shard directories — is replayed in globally merged version order with
// original version numbers, re-seeding the in-memory changelog rings (so
// warm-started audit cursors keep working) and stopping at the first
// version gap; the longest globally valid prefix survives a torn or
// corrupted final record. shards <= 0 reopens at the manifest's width; a
// different width replays correctly but starts a new route epoch and
// invalidates saved audit cursors (warm starts fall back to a full scan).
// The returned store has live WAL sinks attached and continues appending
// where the recovered log ends.
func Open(dir string, shards int, opts wal.Options) (*Store, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if shards <= 0 {
		shards = man.Shards
	}
	sameLayout := shards == man.Shards &&
		len(man.Watermarks) == shards && len(man.LowWater) == shards

	epoch := man.Epoch
	if epoch == 0 {
		epoch = 1
	}
	s, err := openSnapshot(dir, man, shards)
	if err != nil {
		return nil, nil, err
	}
	s.dir, s.walOpts = dir, opts
	s.epochs = append([]EpochChange(nil), man.Epochs...)
	if shards != man.Shards {
		// An explicit width change at reopen is a reshard performed at
		// rest: it starts a fresh epoch so its WAL directories cannot
		// collide with the manifest epoch's. The epoch-log entry is
		// persisted by the next checkpoint or online Reshard.
		epoch++
		s.epochs = append(s.epochs, EpochChange{Epoch: epoch, Width: shards, Version: man.Version})
	}
	s.setEpoch(epoch)

	// Reset the rebuild bookkeeping to the manifest's recovery baseline:
	// the bulk loads above consumed sequencer values and seeded rings with
	// rebuild-local versions that have nothing to do with the original
	// numbering the WAL tail carries.
	for i, sh := range s.table().shards {
		sh.ring = changeRing{cap: sh.ring.cap}
		if sameLayout {
			sh.applied = man.Watermarks[i]
			sh.ring.droppedMax = man.LowWater[i]
		} else {
			sh.applied = man.Version
			sh.ring.droppedMax = man.Version
		}
	}
	s.version.Store(man.Version)

	lastApplied, preSnapshotTear, err := s.replayWAL(dir, man)
	if err != nil {
		return nil, nil, err
	}
	if preSnapshotTear {
		// Corruption below the snapshot version: entity state is intact
		// (the snapshot covers it) but the rings cannot promise continuity
		// for saved cursors — force stale readers onto the full-scan path.
		for _, sh := range s.table().shards {
			if sh.ring.droppedMax < man.Version {
				sh.ring.droppedMax = man.Version
			}
		}
	}

	// Drop any records past the recovered prefix so reopened writers
	// continue a dense log, then attach live sinks.
	if dirs, err := os.ReadDir(WALDir(dir)); err == nil {
		for _, e := range dirs {
			if err := wal.TruncateAfter(filepath.Join(WALDir(dir), e.Name()), lastApplied); err != nil {
				return nil, nil, err
			}
		}
	}
	for i, sh := range s.table().shards {
		sink, err := newWALSink(walShardDir(dir, epoch, i), opts)
		if err != nil {
			return nil, nil, err
		}
		sh.wal = sink
	}
	return s, man, nil
}

// Bootstrap rebuilds the checkpointed state of a durable store directory
// without attaching WAL sinks, replaying the tail, or truncating anything
// on disk — the read-only foundation a replica (internal/replica) builds
// on. The returned store is volatile (Durable() == false) and positioned
// exactly at the manifest: Version() == manifest version, every ring empty
// with droppedMax at the manifest version, so changelog consumers start
// from the WAL tail the replica will feed through Apply.
func Bootstrap(dir string) (*Store, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := openSnapshot(dir, man, man.Shards)
	if err != nil {
		return nil, nil, err
	}
	epoch := man.Epoch
	if epoch == 0 {
		epoch = 1
	}
	s.setEpoch(epoch)
	s.epochs = append([]EpochChange(nil), man.Epochs...)
	for i, sh := range s.table().shards {
		sh.ring = changeRing{cap: sh.ring.cap}
		sh.ring.droppedMax = man.Version
		if len(man.Watermarks) == len(s.table().shards) {
			sh.applied = man.Watermarks[i]
		} else {
			sh.applied = man.Version
		}
	}
	s.version.Store(man.Version)
	return s, man, nil
}

// DecodeWALMutation decodes one changelog WAL frame (key = version,
// payload as written by the store's sinks) — the ingestion side of WAL
// shipping.
func DecodeWALMutation(key uint64, payload []byte) (Mutation, error) {
	return decodeMutation(key, payload)
}

// Apply applies a decoded WAL mutation at its original version and epoch,
// routed through the live table — the replication path: a follower tailing
// another process's log feeds records here in global version order. The
// entity is validated like any live mutation; like the live mutators, the
// durability wait of a durable replica happens after the shard lock is
// released.
func (s *Store) Apply(m Mutation) error {
	sh := s.lockOwner(m.primaryID())
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.applyMutation(sh, m)
	})
}

// replayWAL merges every shard directory's stream by version and applies
// the tail. Returns the highest version surviving recovery and whether a
// stream tore below the snapshot version.
func (s *Store) replayWAL(dir string, man *Manifest) (lastApplied uint64, preSnapshotTear bool, err error) {
	lastApplied = man.Version
	entries, err := os.ReadDir(WALDir(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return lastApplied, false, nil
		}
		return 0, false, fmt.Errorf("store: open wal: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	streams := make([]*replayStream, 0, len(names))
	defer func() {
		for _, rs := range streams {
			rs.r.Close()
		}
	}()
	for _, name := range names {
		r, err := wal.OpenDir(filepath.Join(WALDir(dir), name))
		if err != nil {
			return 0, false, err
		}
		rs := &replayStream{r: r}
		if err := rs.advance(); err != nil {
			return 0, false, err
		}
		streams = append(streams, rs)
	}

	for {
		best := -1
		for i, rs := range streams {
			if !rs.hasHead {
				continue
			}
			if best < 0 || rs.head.Change.Version < streams[best].head.Change.Version {
				best = i
			}
		}
		if best < 0 {
			break
		}
		m := streams[best].head
		v := m.Change.Version
		if v > man.Version {
			if v != lastApplied+1 {
				// Version gap: a record was lost (torn tail in some
				// shard). Everything from the gap on is discarded — the
				// longest globally dense prefix wins.
				break
			}
			if err := s.applyReplay(m); err != nil {
				return 0, false, err
			}
			lastApplied = v
		} else {
			// The snapshot already holds this mutation's effect; re-seed
			// the owning shard's ring so warm-started changelog cursors
			// between low-water and watermark still read cleanly.
			sh := s.table().shardFor(m.primaryID())
			sh.ring.record(m.Change)
			if v > sh.applied {
				sh.applied = v
			}
		}
		if err := streams[best].advance(); err != nil {
			return 0, false, err
		}
	}
	for _, rs := range streams {
		if rs.r.Damaged() && rs.head.Change.Version <= man.Version {
			preSnapshotTear = true
		}
	}
	return lastApplied, preSnapshotTear, nil
}

// applyReplay applies one post-snapshot WAL mutation with its original
// version. The store is not yet published, so no locks are needed; the
// locked helpers only assume the lock is held, they do not acquire it.
// Sinks are not attached during replay, so the ticket is always zero.
func (s *Store) applyReplay(m Mutation) error {
	_, err := s.applyMutation(s.table().shardFor(m.primaryID()), m)
	return err
}

// applyMutation applies one decoded mutation under the held (or not yet
// shared) owning shard, preserving its original version and epoch, and
// returns the durability ticket of the re-recorded mutation.
func (s *Store) applyMutation(sh *shard, m Mutation) (wal.Commit, error) {
	v, e := m.Change.Version, m.Change.Epoch
	switch {
	case m.Change.Entity == EntityWorker && m.Change.Op == OpInsert:
		if err := m.Worker.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putWorkerLocked(sh, m.Worker, v, e)
	case m.Change.Entity == EntityWorker && m.Change.Op == OpUpdate:
		if err := m.Worker.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.updateWorkerLocked(sh, m.Worker, v, e)
	case m.Change.Entity == EntityRequester:
		if err := m.Requester.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putRequesterLocked(sh, m.Requester, v, e)
	case m.Change.Entity == EntityTask:
		if err := m.Task.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putTaskLocked(sh, m.Task, v, e)
	case m.Change.Entity == EntityContribution && m.Change.Op == OpInsert:
		if err := m.Contribution.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putContributionLocked(sh, m.Contribution, v, e)
	case m.Change.Entity == EntityContribution && m.Change.Op == OpUpdate:
		if err := m.Contribution.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.updateContributionLocked(sh, m.Contribution, v, e)
	}
	return wal.Commit{}, fmt.Errorf("store: replay v%d: unknown mutation kind", v)
}
