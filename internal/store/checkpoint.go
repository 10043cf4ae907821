package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
//	  wal/shard-0000/...      per-shard segmented changelog WAL, one
//	                          directory per shard of the manifest's width
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
// continue a dense log. The width is fixed when NewDurable creates the
// directory; Open and Bootstrap rebuild at the manifest's width.
//
// Online resharding, since removed, wrote manifests with an epoch above 1
// and an epoch-change log, and epoch-qualified WAL directories. Such a
// directory is refused (errResharded) rather than half-read.
//
// A format-2 directory (snapshot-<version>.json holding model.Snapshot's
// JSON, the auditor state embedded in the manifest) still opens: the
// snapshot decoder is chosen by the file name the manifest records, and the
// embedded state is ignored, so that auditor cold-starts once. Its next
// checkpoint writes format 3 and sweeps the JSON snapshot.

// manifestFormat versions the on-disk layout. Format 2 added the route
// epoch; format 3 moved the snapshot to the binary frame codec and the
// auditor state out of the manifest into a sidecar. Manifests are always
// written as manifestFormat; oldestManifestFormat is the oldest still read.
const (
	manifestFormat       = 3
	oldestManifestFormat = 2
)

// errResharded refuses a directory written by online resharding.
var errResharded = errors.New("store: directory was resharded online; online resharding was removed and this layout is no longer readable")

// Manifest is the checkpoint metadata of a durable store.
type Manifest struct {
	// Format is the layout version (manifestFormat).
	Format int `json:"format"`
	// Skills reproduces the universe so Open needs no out-of-band schema.
	Skills []string `json:"skills"`
	// Shards is the store's fixed hash-partition count: the number of WAL
	// shard directories.
	Shards int `json:"shards"`
	// Epoch is always written as walEpoch, the only route epoch a
	// readable directory has (0, from an old format-2 writer, reads as 1).
	Epoch uint64 `json:"epoch,omitempty"`
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

// WALShardDir names shard i's WAL directory under a durable store directory.
func WALShardDir(dir string, i int) string {
	return filepath.Join(WALDir(dir), fmt.Sprintf("shard-%04d", i))
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

// ReadManifest loads the manifest of a durable store directory. A manifest
// that records online resharding — an epoch above 1 or an epoch-change
// log — is refused with errResharded.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var doc struct {
		Manifest
		Epochs []json.RawMessage `json:"epochs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	m := doc.Manifest
	if m.Format < oldestManifestFormat || m.Format > manifestFormat {
		return nil, fmt.Errorf("store: manifest format %d, want %d..%d", m.Format, oldestManifestFormat, manifestFormat)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("store: manifest shard count %d", m.Shards)
	}
	if m.Epoch > walEpoch || len(doc.Epochs) > 0 {
		return nil, fmt.Errorf("%w (epoch %d, %d width changes)", errResharded, m.Epoch, len(doc.Epochs))
	}
	return &m, nil
}

func writeManifest(dir string, m *Manifest) error {
	m.Format, m.Epoch = manifestFormat, walEpoch
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
	if err := s.attachWAL(dir, opts); err != nil {
		return nil, err
	}
	m := &Manifest{Skills: u.Names(), Shards: len(s.shards)}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	return s, nil
}

// attachWAL makes a not-yet-published store durable under dir: every shard
// gets a write-ahead log on its directory.
func (s *Store) attachWAL(dir string, opts wal.Options) error {
	s.dir = dir
	for i, sh := range s.shards {
		w, err := wal.Create(WALShardDir(dir, i), opts)
		if err != nil {
			return err
		}
		sh.wal = w
	}
	return nil
}

// WALStats aggregates the append/batch/fsync counters of every live
// shard WAL — zero for volatile stores. Appends/Syncs is the realised
// group-commit amortisation.
func (s *Store) WALStats() wal.WriterStats {
	var agg wal.WriterStats
	for _, sh := range s.shards {
		sh.mu.RLock()
		if sh.wal != nil {
			st := sh.wal.Stats()
			agg.Appends += st.Appends
			agg.Batches += st.Batches
			agg.Syncs += st.Syncs
		}
		sh.mu.RUnlock()
	}
	return agg
}

// Close closes every shard's WAL and detaches it. The store
// stays fully usable in memory afterwards — reads and even mutations
// succeed — but durability ends: post-Close mutations are never written
// to the WAL and will be absent after the next Open.
func (s *Store) Close() error {
	// ckptMu excludes a concurrent Checkpoint, which rotates and truncates
	// the logs Close detaches.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	var firstErr error
	for _, sh := range s.shards {
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
	shs, release := s.rlockView()
	defer release()

	m := &Manifest{
		Skills:     s.universe.Names(),
		Shards:     len(shs),
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
	// All mutators are blocked on the shard locks, so touching the logs
	// here is race-free.
	for i, sh := range shs {
		if sh.wal == nil {
			continue
		}
		if err := sh.wal.Sync(); err != nil {
			return nil, err
		}
		if err := sh.wal.Rotate(); err != nil {
			return nil, err
		}
		if err := sh.wal.TruncateBefore(m.LowWater[i]); err != nil {
			return nil, err
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
	m, err := decodeMutation(key, payload, walEpoch)
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

// openSnapshot rebuilds the checkpointed entity state (or an empty store)
// from a manifest at its width, storing the entities it decodes themselves
// once their skills are packed, positioned exactly at the manifest: the
// bulk loads consume sequencer values and seed rings with rebuild-local
// versions that have nothing to do with the original numbering the WAL
// tail carries, so the sequencer, every watermark and every ring's
// truncation signal are reset to the manifest version. The snapshot's file
// name picks its decoder: .json is a format-2 directory's model.Snapshot
// document, anything else the frame codec.
func openSnapshot(dir string, man *Manifest) (*Store, error) {
	var s *Store
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
		for _, w := range snap.Workers {
			w.PackSkills()
		}
		for _, t := range snap.Tasks {
			t.PackSkills()
		}
		if s, err = adoptSnapshot(snap, man.Shards); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	} else {
		u, err := model.NewUniverse(man.Skills...)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		s = NewSharded(u, man.Shards)
	}
	for _, sh := range s.shards {
		sh.ring = changeRing{cap: sh.ring.cap, droppedMax: man.Version}
		sh.applied = man.Version
	}
	s.version.Store(man.Version)
	return s, nil
}

// Open recovers a durable store from dir at its manifest's width: the
// checkpoint snapshot is rebuilt through the bulk insert paths, then the
// WAL tail of every shard directory is replayed in globally merged version
// order with original version numbers, re-seeding the in-memory changelog
// rings (so warm-started audit cursors keep working) and stopping at the
// first version gap; the longest globally valid prefix survives a torn or
// corrupted final record. shards must be 0 or the manifest's width — a
// store keeps the width it was created with. The returned store has live
// WALs attached and continues appending where the recovered log ends.
func Open(dir string, shards int, opts wal.Options) (*Store, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	if shards != 0 && shards != man.Shards {
		return nil, nil, fmt.Errorf("store: open %s at %d shards: it was created with %d, and a store keeps its width", dir, shards, man.Shards)
	}
	s, err := openSnapshot(dir, man)
	if err != nil {
		return nil, nil, err
	}
	if len(man.Watermarks) == man.Shards && len(man.LowWater) == man.Shards {
		for i, sh := range s.shards {
			sh.applied = man.Watermarks[i]
			sh.ring.droppedMax = man.LowWater[i]
		}
	}

	lastApplied, preSnapshotTear, err := s.replayWAL(dir, man)
	if err != nil {
		return nil, nil, err
	}
	if preSnapshotTear {
		// Corruption below the snapshot version: entity state is intact
		// (the snapshot covers it) but the rings cannot promise continuity
		// for saved cursors — force stale readers onto the full-scan path.
		for _, sh := range s.shards {
			if sh.ring.droppedMax < man.Version {
				sh.ring.droppedMax = man.Version
			}
		}
	}

	// Drop any records past the recovered prefix so reopened writers
	// continue a dense log, then attach live writers.
	for i := range s.shards {
		if err := wal.TruncateAfter(WALShardDir(dir, i), lastApplied); err != nil {
			return nil, nil, err
		}
	}
	if err := s.attachWAL(dir, opts); err != nil {
		return nil, nil, err
	}
	return s, man, nil
}

// Bootstrap rebuilds the checkpointed state of a durable store directory
// without attaching WAL writers, replaying the tail, or truncating anything
// on disk — the read-only foundation a replica (internal/replica) builds
// on. The returned store is volatile (no WAL attached) and positioned
// exactly at the manifest: Version() == manifest version, every ring empty
// with droppedMax at the manifest version, so changelog consumers start
// from the WAL tail the replica will feed through ApplyWALFrame.
func Bootstrap(dir string) (*Store, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := openSnapshot(dir, man)
	if err != nil {
		return nil, nil, err
	}
	if len(man.Watermarks) == man.Shards {
		for i, sh := range s.shards {
			sh.applied = man.Watermarks[i]
		}
	}
	return s, man, nil
}

// ApplyWALFrame decodes one changelog WAL frame (key = version, payload as
// written by the store's shards) and applies it at its original version,
// routed by its entity id — the ingestion side of WAL shipping: a follower
// tailing another process's log feeds frames here in global version order.
// The entity is validated like any live mutation, and the store keeps the
// one it decoded, its skills packed, as recovery does: no caller holds it,
// so nothing is cloned. Like the live mutators, the durability wait of a
// durable replica happens after the shard lock is released.
func (s *Store) ApplyWALFrame(key uint64, payload []byte) error {
	m, err := decodeMutation(key, payload, walEpoch)
	if err != nil {
		return err
	}
	m.packSkills()
	sh := s.lockOwner(m.primaryID())
	return commitOutside(sh, func() (wal.Commit, error) {
		return s.applyMutation(sh, m)
	})
}

// replayWAL merges every shard directory's stream by version and applies
// the tail. Returns the highest version surviving recovery and whether a
// stream tore below the snapshot version. A WAL directory other than the
// width's shard directories was left by online resharding, and its records
// would be lost unseen: the layout is refused instead.
func (s *Store) replayWAL(dir string, man *Manifest) (lastApplied uint64, preSnapshotTear bool, err error) {
	lastApplied = man.Version
	entries, err := os.ReadDir(WALDir(dir))
	if err != nil && !os.IsNotExist(err) {
		return 0, false, fmt.Errorf("store: open wal: %w", err)
	}
	shardDirs := make(map[string]bool, len(s.shards))
	for i := range s.shards {
		shardDirs[filepath.Base(WALShardDir(dir, i))] = true
	}
	for _, e := range entries {
		if !shardDirs[e.Name()] {
			return 0, false, fmt.Errorf("%w (wal directory %s)", errResharded, e.Name())
		}
	}
	streams := make([]*replayStream, 0, len(s.shards))
	defer func() {
		for _, rs := range streams {
			rs.r.Close()
		}
	}()
	for i := range s.shards {
		r, err := wal.OpenDir(WALShardDir(dir, i))
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
			sh := s.shardFor(m.primaryID())
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
// version, storing the entity replay decoded once its skills are packed.
// The store is not yet published, so no locks are needed; the locked
// helpers only assume the lock is held, they do not acquire it. WALs are
// not attached during replay, so the ticket is always zero.
func (s *Store) applyReplay(m Mutation) error {
	m.packSkills()
	_, err := s.applyMutation(s.shardFor(m.primaryID()), m)
	return err
}

// packSkills packs the skills of the worker or task m carries, for a store
// that keeps the entity as decoded.
func (m Mutation) packSkills() {
	if m.Worker != nil {
		m.Worker.PackSkills()
	}
	if m.Task != nil {
		m.Task.PackSkills()
	}
}

// applyMutation applies one decoded mutation under the held (or not yet
// shared) owning shard, preserving its original version, and
// returns the durability ticket of the re-recorded mutation. Like the
// *Locked mutators it stores m's entity itself.
func (s *Store) applyMutation(sh *shard, m Mutation) (wal.Commit, error) {
	v := m.Change.Version
	switch {
	case m.Change.Entity == EntityWorker && m.Change.Op == OpInsert:
		if err := m.Worker.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putWorkerLocked(sh, m.Worker, v)
	case m.Change.Entity == EntityWorker && m.Change.Op == OpUpdate:
		if err := m.Worker.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.updateWorkerLocked(sh, m.Worker, v)
	case m.Change.Entity == EntityRequester:
		if err := m.Requester.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putRequesterLocked(sh, m.Requester, v)
	case m.Change.Entity == EntityTask:
		if err := m.Task.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putTaskLocked(sh, m.Task, v)
	case m.Change.Entity == EntityContribution && m.Change.Op == OpInsert:
		if err := m.Contribution.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putContributionLocked(sh, m.Contribution, v)
	case m.Change.Entity == EntityContribution && m.Change.Op == OpUpdate:
		if err := m.Contribution.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.updateContributionLocked(sh, m.Contribution, v)
	}
	return wal.Commit{}, fmt.Errorf("store: replay v%d: unknown mutation kind", v)
}
