package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/model"
	"repro/internal/wal"
)

// Durable store layout (format 4), rooted at one directory:
//
//	dir/
//	  MANIFEST.json           checkpoint manifest: a few hundred bytes of
//	                          JSON naming the two files below (atomic rename)
//	  snapshot-<version>.bin  entity state at the last checkpoint: one WAL
//	                          segment image of insert records (snapcodec.go)
//	  audit-<version>.bin     the incremental auditor's warm state at that
//	                          checkpoint, opaque to the store (absent when
//	                          the checkpoint carried none)
//	  wal/...                 the store's segmented changelog WAL
//	  events/...              the event log's segments (internal/eventlog)
//
// CreateDurable creates the layout and writes a version-0 manifest so
// OpenDurable always finds the universe. Checkpoint freezes the store (the
// read lock — mutators block for the duration), writes the snapshot, then
// the audit sidecar, then renames the new manifest over the old one — the
// commit point: a crash before it leaves the old manifest naming the old
// pair, and the files written so far are orphans the next checkpoint
// sweeps, as it sweeps the pair it replaces. Only then does it truncate WAL
// segments below the low-water version: the smaller of the store's version
// and the auditor's changelog cursor, so a warm-started auditor still finds
// every record it needs. OpenDurable rebuilds from the snapshot and
// replays the WAL tail in version order, preserving original version
// numbers, stopping at the first version gap (a torn record invalidates
// every higher version) and physically truncating the discarded tail so
// appends continue a dense log.
//
// Formats 2 and 3 were hash-partitioned: per-shard WAL directories under
// wal/, per-shard watermarks and low-water marks in the manifest, and — in
// directories written by the since-removed online resharding — an epoch
// above 1. ReadManifest refuses them, naming the format and width; nothing
// in such a directory is read past the manifest, truncated or written.

// manifestFormat versions the on-disk layout. Format 2 added the route
// epoch; format 3 moved the snapshot to the binary frame codec and the
// auditor state out of the manifest into a sidecar; format 4 is one
// partition: one WAL directory and scalar positions. Only manifestFormat is
// read.
const manifestFormat = 4

// Manifest is the checkpoint metadata of a durable store.
type Manifest struct {
	// Format is the layout version (manifestFormat).
	Format int `json:"format"`
	// Skills reproduces the universe so OpenDurable needs no out-of-band
	// schema.
	Skills []string `json:"skills"`
	// Version is the mutation sequencer at checkpoint; the snapshot
	// reflects exactly the mutations with versions 1..Version.
	Version uint64 `json:"version"`
	// LowWater is the version below which WAL segments may have been
	// truncated; a changelog cursor at or above it can be warm-started
	// from the recovered ring.
	LowWater uint64 `json:"low_water,omitempty"`
	// Snapshot names the snapshot file this manifest pairs with (empty for
	// the version-0 manifest CreateDurable writes). Snapshots are written
	// under version-stamped names and the manifest renamed over last, so a
	// crash between the two steps leaves the old manifest pointing at the
	// old snapshot — never a mismatched pair.
	Snapshot string `json:"snapshot,omitempty"`
	// Events is the event-log length at checkpoint (informational; the
	// event WAL is never truncated because cold audits replay it whole).
	Events int `json:"events,omitempty"`
	// AuditFile names the sidecar holding the incremental audit engine's
	// encoded state (opaque to the store; read back by audit.LoadState),
	// valid against the changelog cursor that fed LowWater. Empty when the
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
// of another format — the hash-partitioned formats 2 and 3 among them — is
// refused with an error naming its format and width.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	var head struct {
		Format int    `json:"format"`
		Shards int    `json:"shards"`
		Epoch  uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
	}
	if head.Format != manifestFormat {
		return nil, fmt.Errorf("store: manifest format %d (%d shards, epoch %d): only format %d, one partition, is readable",
			head.Format, head.Shards, head.Epoch, manifestFormat)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: parse manifest: %w", err)
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

// CreateDurable returns an empty store that tees every mutation into a
// segmented write-ahead log under dir. The directory must not already hold
// a durable store (use OpenDurable to recover one).
func CreateDurable(u *model.Universe, dir string, opts wal.Options) (*Store, error) {
	if Exists(dir) {
		return nil, fmt.Errorf("store: %s already holds a durable store (use OpenDurable)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := New(u)
	if err := s.attachWAL(dir, opts); err != nil {
		return nil, err
	}
	if err := writeManifest(dir, &Manifest{Skills: u.Names()}); err != nil {
		return nil, err
	}
	return s, nil
}

// NewDurable is CreateDurable with a width argument, which must be 1. It
// is kept only because bench/ calls it; it leaves with one door.
func NewDurable(u *model.Universe, shards int, dir string, opts wal.Options) (*Store, error) {
	if shards != 1 {
		return nil, fmt.Errorf("store: width %d: a store has one partition", shards)
	}
	return CreateDurable(u, dir, opts)
}

// attachWAL makes a not-yet-published store durable under dir.
func (s *Store) attachWAL(dir string, opts wal.Options) error {
	w, err := wal.Create(WALDir(dir), opts)
	if err != nil {
		return err
	}
	s.dir, s.wal = dir, w
	return nil
}

// WALStats returns the append/batch/fsync counters of the live WAL — zero
// for volatile stores. Appends/Syncs is the realised group-commit
// amortisation.
func (s *Store) WALStats() wal.WriterStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.wal == nil {
		return wal.WriterStats{}
	}
	return s.wal.Stats()
}

// Close closes the WAL and detaches it. The store stays fully usable in
// memory afterwards — reads and even mutations succeed — but durability
// ends: post-Close mutations are never written to the WAL and will be
// absent after the next OpenDurable.
func (s *Store) Close() error {
	// ckptMu excludes a concurrent Checkpoint, which rotates and truncates
	// the log Close detaches.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// CheckpointOptions carries the cross-subsystem state a checkpoint pins
// alongside the store snapshot.
type CheckpointOptions struct {
	// Audit is the incremental auditor's encoded state (opaque blob), written
	// to the manifest's AuditFile sidecar; empty writes none.
	Audit []byte
	// AuditCursor is the changelog cursor the audit state was saved at; it
	// lowers the low-water so warm-start replay still finds every record
	// between cursor and version. Ignored when Audit is empty.
	AuditCursor uint64
	// Events is the current event-log length, recorded for observability.
	Events int
}

// Checkpoint freezes the store, writes snapshot, audit sidecar and manifest
// (in that order) under the store's directory, and truncates WAL segments
// that both the snapshot and the audit cursor have passed. Mutators block
// for the duration (they need the write lock); readers proceed. Returns
// the new manifest.
func (s *Store) Checkpoint(o CheckpointOptions) (*Manifest, error) {
	if s.dir == "" {
		return nil, fmt.Errorf("store: checkpoint of a volatile store")
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()

	v := s.version.Load()
	m := &Manifest{
		Skills:   s.universe.Names(),
		Version:  v,
		LowWater: v,
		Snapshot: snapshotName(v),
		Events:   o.Events,
	}
	if len(o.Audit) > 0 && o.AuditCursor < m.LowWater {
		m.LowWater = o.AuditCursor
	}

	if err := writeFileAtomic(filepath.Join(s.dir, m.Snapshot), encodeSnapshotFrames(s.snapshotLocked())); err != nil {
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
	// (the replaced pair, the leavings of an interrupted checkpoint) is an
	// orphan.
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

	// The manifest is durable: segments at or below the low-water are dead.
	// Rotate first so the active segment becomes truncatable too. Every
	// mutator is blocked on the lock, so touching the log here is
	// race-free.
	if s.wal == nil {
		return m, nil
	}
	if err := s.wal.Sync(); err != nil {
		return nil, err
	}
	if err := s.wal.Rotate(); err != nil {
		return nil, err
	}
	if err := s.wal.TruncateBefore(m.LowWater); err != nil {
		return nil, err
	}
	return m, nil
}

// openSnapshot rebuilds the checkpointed entity state (or an empty store)
// from a manifest, storing the entities it decodes themselves once their
// skills are packed, positioned exactly at the manifest: the bulk loads
// consume sequencer values and seed the ring with rebuild-local versions
// that have nothing to do with the original numbering the WAL tail
// carries, so the sequencer and the ring's truncation signal are reset to
// the manifest version.
func openSnapshot(dir string, man *Manifest) (*Store, error) {
	var s *Store
	if man.Snapshot != "" {
		data, err := os.ReadFile(filepath.Join(dir, man.Snapshot))
		if err != nil {
			return nil, fmt.Errorf("store: read snapshot: %w", err)
		}
		snap, err := decodeSnapshotFrames(data)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		for _, w := range snap.Workers {
			w.PackSkills()
		}
		for _, t := range snap.Tasks {
			t.PackSkills()
		}
		if s, err = adoptSnapshot(snap); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	} else {
		u, err := model.NewUniverse(man.Skills...)
		if err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		s = New(u)
	}
	s.ring = changeRing{cap: s.ring.cap, droppedMax: man.Version}
	s.version.Store(man.Version)
	return s, nil
}

// OpenDurable recovers a durable store from dir: the checkpoint snapshot
// is rebuilt through the bulk insert paths, then the WAL tail is replayed
// in version order with original version numbers, re-seeding the
// in-memory changelog ring (so a warm-started audit cursor keeps working)
// and stopping at the first version gap; the longest valid prefix survives
// a torn or corrupted final record. The returned store has a live WAL
// attached and continues appending where the recovered log ends.
func OpenDurable(dir string, opts wal.Options) (*Store, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := openSnapshot(dir, man)
	if err != nil {
		return nil, nil, err
	}
	s.ring.droppedMax = man.LowWater

	lastApplied, _, preSnapshotTear, err := s.replayWAL(dir, man.Version, s.applyReplay, s.ring.record)
	if err != nil {
		return nil, nil, err
	}
	if preSnapshotTear && s.ring.droppedMax < man.Version {
		// Corruption below the snapshot version: entity state is intact
		// (the snapshot covers it) but the ring cannot promise continuity
		// for a saved cursor — force a stale reader onto the full-scan
		// path.
		s.ring.droppedMax = man.Version
	}

	// Drop any records past the recovered prefix so the reopened writer
	// continues a dense log, then attach it.
	if err := wal.TruncateAfter(WALDir(dir), lastApplied); err != nil {
		return nil, nil, err
	}
	if err := s.attachWAL(dir, opts); err != nil {
		return nil, nil, err
	}
	return s, man, nil
}

// Open is OpenDurable with a width argument, which must be 0 or 1. It is
// kept only because bench/ calls it; it leaves with one door.
func Open(dir string, shards int, opts wal.Options) (*Store, *Manifest, error) {
	if shards != 0 && shards != 1 {
		return nil, nil, fmt.Errorf("store: open %s at width %d: a store has one partition", dir, shards)
	}
	return OpenDurable(dir, opts)
}

// Bootstrap rebuilds the checkpointed state of a durable store directory
// without attaching a WAL writer, replaying the tail, or truncating
// anything on disk — the read-only foundation of a replica, which then
// follows the tail with CatchUp. The returned store is volatile (no WAL
// attached) and positioned exactly at the manifest: Version() == manifest
// version, the ring empty with droppedMax at the manifest version, so
// changelog consumers start from the records CatchUp applies.
func Bootstrap(dir string) (*Store, *Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	s, err := openSnapshot(dir, man)
	if err != nil {
		return nil, nil, err
	}
	return s, man, nil
}

// CatchUp is a replica's shipping pass over another process's durable
// directory: it replays the retained WAL through the same scan OpenDurable
// runs and applies, under the write lock, every record above the store's
// version up to the first version gap. A record still being appended reads
// as a torn tail and ends the scan, so it waits for a later pass. Returns
// the number of records applied and the highest version seen on disk. A
// segment the primary's checkpoint removes while the pass reads the
// directory fails the pass with an error; the next pass lists the
// directory afresh. The store must be a volatile one (Bootstrap) that only
// CatchUp mutates.
func (s *Store) CatchUp(dir string) (applied int, observed uint64, err error) {
	from := s.Version()
	last, observed, _, err := s.replayWAL(dir, from, s.applyFrame, nil)
	return int(last - from), observed, err
}

// applyFrame applies one decoded WAL mutation at its original version under
// the write lock — a replica's apply path. The store keeps the entity
// decoded, its skills packed, as recovery does: no caller holds it, so
// nothing is cloned. Like the live mutators, the durability wait of a
// store with a WAL attached happens after the lock is released.
func (s *Store) applyFrame(m Mutation) error {
	m.packSkills()
	return s.commit(func() (wal.Commit, error) { return s.applyMutation(m) })
}

// replayWAL is the one scan of the store's WAL, shared by recovery
// (OpenDurable) and a replica's CatchUp. A record above from goes to apply
// when it extends the dense version order, and the first version gap (a
// torn or undecodable record) ends what is applied — the longest dense
// prefix wins, and the records behind the gap are only counted in
// observed. A record at or below from goes to seed, or is skipped
// undecoded when seed is nil. Returns the highest version applied (from
// when none), the highest version seen, and whether the log tore at or
// below from.
func (s *Store) replayWAL(dir string, from uint64, apply func(Mutation) error, seed func(Change)) (last, observed uint64, tornBelow bool, err error) {
	last = from
	r, err := wal.OpenDir(WALDir(dir))
	if err != nil {
		return last, 0, false, err
	}
	defer r.Close()
	var key uint64
	for {
		k, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return last, observed, false, err
		}
		key = k
		if key > observed {
			observed = key
		}
		if key != last+1 && (key > from || seed == nil) {
			continue
		}
		m, err := decodeMutation(key, payload, walEpoch)
		if err != nil {
			// A CRC-valid but undecodable record is a hole just like a
			// torn frame: stop at the longest valid prefix.
			break
		}
		if key <= from {
			seed(m.Change)
			continue
		}
		if err := apply(m); err != nil {
			return last, observed, false, err
		}
		last = key
	}
	return last, observed, r.Damaged() && key <= from, nil
}

// applyReplay applies one post-snapshot WAL mutation with its original
// version, storing the entity replay decoded once its skills are packed.
// The store is not yet published, so no lock is needed; the locked
// helpers only assume the lock is held, they do not acquire it. No WAL is
// attached during replay, so the ticket is always zero.
func (s *Store) applyReplay(m Mutation) error {
	m.packSkills()
	_, err := s.applyMutation(m)
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
// shared) lock, preserving its original version, and returns the
// durability ticket of the re-recorded mutation. Like the *Locked mutators
// it stores m's entity itself.
func (s *Store) applyMutation(m Mutation) (wal.Commit, error) {
	v := m.Change.Version
	switch {
	case m.Change.Entity == EntityWorker && m.Change.Op == OpInsert:
		if err := m.Worker.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putWorkerLocked(m.Worker, v)
	case m.Change.Entity == EntityWorker && m.Change.Op == OpUpdate:
		if err := m.Worker.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.updateWorkerLocked(m.Worker, v)
	case m.Change.Entity == EntityRequester:
		if err := m.Requester.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putRequesterLocked(m.Requester, v)
	case m.Change.Entity == EntityTask:
		if err := m.Task.Validate(s.universe); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putTaskLocked(m.Task, v)
	case m.Change.Entity == EntityContribution && m.Change.Op == OpInsert:
		if err := m.Contribution.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.putContributionLocked(m.Contribution, v)
	case m.Change.Entity == EntityContribution && m.Change.Op == OpUpdate:
		if err := m.Contribution.Validate(); err != nil {
			return wal.Commit{}, fmt.Errorf("store: replay v%d: %w", v, err)
		}
		return s.updateContributionLocked(m.Contribution, v)
	}
	return wal.Commit{}, fmt.Errorf("store: replay v%d: unknown mutation kind", v)
}
