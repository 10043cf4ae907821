package crowdfair_test

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/crowdfair"
	"repro/internal/audit"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wal"
)

// drain runs CatchUp passes until one applies nothing, returning the total
// applied. Watermark monotonicity is asserted along the way.
func drain(t *testing.T, r *crowdfair.Replica) int {
	t.Helper()
	total := 0
	last := r.AppliedVersion()
	for {
		n, err := r.CatchUp()
		if err != nil {
			t.Fatal(err)
		}
		if v := r.AppliedVersion(); v < last {
			t.Fatalf("applied version went backwards: %d after %d", v, last)
		} else {
			last = v
		}
		total += n
		if n == 0 {
			return total
		}
	}
}

// TestReplicaConvergence is the replica acceptance test: a follower
// tailing a live primary's WAL directory converges exactly once writes
// stop, its watermark only moves forward, and its incremental audit at the
// converged version reports exactly what the primary reports.
func TestReplicaConvergence(t *testing.T) {
	dir := t.TempDir()
	u := crowdfair.NewUniverse("go", "sql")
	cfg := crowdfair.DefaultAuditConfig()
	p, err := crowdfair.OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		w := &crowdfair.Worker{
			ID:     crowdfair.WorkerID(fmt.Sprintf("w%02d", i)),
			Skills: u.MustVector([]string{"go", "sql"}[i%2]),
		}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		task := &crowdfair.Task{
			ID:        crowdfair.TaskID(fmt.Sprintf("t%02d", i)),
			Requester: "r1",
			Skills:    u.MustVector("go"),
			Reward:    float64(1 + i),
		}
		if err := p.PostTask(task); err != nil {
			t.Fatal(err)
		}
		// Offer each task to only some of the skilled workers: access
		// asymmetry the fairness axioms will flag identically on both
		// sides.
		if err := p.Offer(task.ID, crowdfair.WorkerID(fmt.Sprintf("w%02d", (2*i)%12))); err != nil {
			t.Fatal(err)
		}
	}

	// Bootstrap the follower from the (empty-checkpoint) manifest, then
	// ship the whole tail. Under the default SyncNever every acknowledged
	// write is already in its segment file: the follower needs no sync.
	r, err := crowdfair.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := drain(t, r); n == 0 {
		t.Fatal("replica applied nothing from a non-empty log")
	}
	primaryV := p.Store().Version()
	if got := r.AppliedVersion(); got != primaryV {
		t.Fatalf("replica at version %d, primary at %d", got, primaryV)
	}
	st := r.Staleness()
	if st.Lag != 0 || st.Applied != primaryV || st.Observed != primaryV {
		t.Fatalf("staleness after convergence = %+v", st)
	}

	// The replica's audit must match the primary's at the same version.
	want := p.AuditIncremental(cfg)
	got := r.AuditIncremental(cfg)
	if !audit.ViolationsEqual(want, got) {
		t.Fatal("replica audit reports differ from primary at the same version")
	}

	// More writes on the primary ship incrementally into the same replica.
	for i := 12; i < 20; i++ {
		w := &crowdfair.Worker{
			ID:     crowdfair.WorkerID(fmt.Sprintf("w%02d", i)),
			Skills: u.MustVector("sql"),
		}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
		c := &crowdfair.Contribution{
			ID:     crowdfair.ContributionID(fmt.Sprintf("c%02d", i)),
			Task:   "t00",
			Worker: w.ID,
		}
		if err := p.RecordContribution(c); err != nil {
			t.Fatal(err)
		}
	}
	if n := drain(t, r); n == 0 {
		t.Fatal("replica missed the incremental tail")
	}
	if got, want := r.AppliedVersion(), p.Store().Version(); got != want {
		t.Fatalf("replica at version %d after the incremental tail, primary at %d", got, want)
	}
	if got, want := len(r.Store().Workers()), 20; got != want {
		t.Fatalf("replica sees %d workers, want %d", got, want)
	}
	if !audit.ViolationsEqual(p.AuditIncremental(cfg), r.AuditIncremental(cfg)) {
		t.Fatal("replica audit diverged after incremental catch-up")
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaFromCheckpoint pins the bootstrap path: a replica opened
// against a checkpointed directory starts from the snapshot and ships only
// the post-checkpoint tail.
func TestReplicaFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	u := crowdfair.NewUniverse("go")
	cfg := crowdfair.DefaultAuditConfig()
	p, err := crowdfair.OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		w := &crowdfair.Worker{ID: crowdfair.WorkerID(fmt.Sprintf("w%02d", i)), Skills: u.MustVector("go")}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointV := p.Store().Version()
	for i := 8; i < 11; i++ {
		w := &crowdfair.Worker{ID: crowdfair.WorkerID(fmt.Sprintf("w%02d", i)), Skills: u.MustVector("go")}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}

	r, err := crowdfair.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.AppliedVersion(); got != checkpointV {
		t.Fatalf("bootstrap version %d, want checkpoint version %d", got, checkpointV)
	}
	if applied := drain(t, r); applied != 3 {
		t.Fatalf("shipped %d tail mutations, want 3", applied)
	}
	if got, want := r.AppliedVersion(), p.Store().Version(); got != want {
		t.Fatalf("replica at %d, primary at %d", got, want)
	}
	if got := len(r.Store().Workers()); got != 11 {
		t.Fatalf("replica sees %d workers, want 11", got)
	}
	if !audit.ViolationsEqual(p.AuditIncremental(cfg), r.AuditIncremental(cfg)) {
		t.Fatal("replica audit differs from primary")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBootstrapFromCheckpointThenCatchUp is the path a fresh follower
// takes against a primary that has checkpointed: store.Bootstrap rebuilds
// the binary snapshot, CatchUp ships only the post-checkpoint tail, and the
// follower lands on the primary's version, entity counts and audit
// fingerprint.
func TestBootstrapFromCheckpointThenCatchUp(t *testing.T) {
	dir := t.TempDir()
	u := crowdfair.NewUniverse("go", "sql", "nlp")
	cfg := crowdfair.DefaultAuditConfig()
	p, err := crowdfair.OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	add := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			w := &crowdfair.Worker{
				ID:       crowdfair.WorkerID(fmt.Sprintf("w%03d", i)),
				Computed: crowdfair.Attributes{"acceptance_ratio": crowdfair.Num(0.5 + float64(i%5)/10)},
				Skills:   u.MustVector([]string{"go", "sql", "nlp"}[i%3]),
			}
			if err := p.AddWorker(w); err != nil {
				t.Fatal(err)
			}
			task := &crowdfair.Task{
				ID: crowdfair.TaskID(fmt.Sprintf("t%03d", i)), Requester: "r1",
				Skills: u.MustVector([]string{"go", "sql", "nlp"}[i%3]), Reward: float64(1 + i%4),
			}
			if err := p.PostTask(task); err != nil {
				t.Fatal(err)
			}
			if err := p.Offer(task.ID, w.ID); err != nil {
				t.Fatal(err)
			}
			c := &crowdfair.Contribution{
				ID: crowdfair.ContributionID(fmt.Sprintf("c%03d", i)), Task: task.ID, Worker: w.ID,
				Text: "answer", Quality: 0.8, Accepted: true, Paid: float64(1 + i%2), SubmittedAt: int64(i),
			}
			if err := p.RecordContribution(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	add(0, 30)
	p.AuditIncremental(cfg)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkpointed := p.Version()
	// Under the default SyncNever an acknowledged mutation is already in
	// its segment file, so the follower reads the tail without a sync.
	add(30, 45)

	r, err := crowdfair.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.AppliedVersion(); v != checkpointed {
		t.Fatalf("bootstrapped at version %d, checkpoint was taken at %d", v, checkpointed)
	}
	applied, err := r.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if want := int(p.Version() - checkpointed); applied != want {
		t.Fatalf("catch-up applied %d mutations, the post-checkpoint tail holds %d", applied, want)
	}
	if v := r.AppliedVersion(); v != p.Version() {
		t.Fatalf("replica at version %d, primary at %d", v, p.Version())
	}
	var got, want [4]int
	want[0], want[1], want[2], want[3] = p.EntityCounts()
	st := r.Store()
	got = [4]int{st.WorkerCount(), st.TaskCount(), st.ContributionCount(), r.EventCount()}
	if got != want {
		t.Fatalf("replica counts %v, primary %v", got, want)
	}
	gotFP := serve.AuditFingerprint(r.AuditFairness(cfg))
	if wantFP := serve.AuditFingerprint(p.AuditFairness(cfg)); gotFP != wantFP {
		t.Fatalf("replica audit fingerprint %s, primary %s", gotFP, wantFP)
	}
}

// TestCheckpointTruncatesUnderReplica pins the replica against a primary
// checkpoint that truncates WAL segments between its passes. A follower
// that caught up keeps converging: the checkpoint drops only segments the
// primary's auditor has passed, and the next pass re-reads the retained
// ones. A follower that read nothing past its bootstrap, when the
// primary checkpoints past every segment it still needed, gets ErrGap and
// does not move.
func TestCheckpointTruncatesUnderReplica(t *testing.T) {
	dir := t.TempDir()
	u := crowdfair.NewUniverse("go", "sql")
	cfg := crowdfair.DefaultAuditConfig()
	p, err := crowdfair.OpenPlatformWAL(dir, u, cfg, crowdfair.WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	add := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			w := &crowdfair.Worker{
				ID:     crowdfair.WorkerID(fmt.Sprintf("w%03d", i)),
				Skills: u.MustVector([]string{"go", "sql"}[i%2]),
			}
			if err := p.AddWorker(w); err != nil {
				t.Fatal(err)
			}
			task := &crowdfair.Task{
				ID: crowdfair.TaskID(fmt.Sprintf("t%03d", i)), Requester: "r1",
				Skills: w.Skills, Reward: float64(1 + i%3),
			}
			if err := p.PostTask(task); err != nil {
				t.Fatal(err)
			}
			c := &crowdfair.Contribution{
				ID: crowdfair.ContributionID(fmt.Sprintf("c%03d", i)), Task: task.ID, Worker: w.ID,
				Text: "answer", Quality: 0.7, SubmittedAt: int64(i),
			}
			if err := p.RecordContribution(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	converged := func(r *crowdfair.Replica) {
		t.Helper()
		for {
			n, err := r.CatchUp()
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		if got, want := r.AppliedVersion(), p.Version(); got != want {
			t.Fatalf("replica at version %d, primary at %d", got, want)
		}
		got := serve.AuditFingerprint(r.AuditFairness(cfg))
		if want := serve.AuditFingerprint(p.AuditFairness(cfg)); got != want {
			t.Fatalf("replica audit fingerprint %s, primary %s", got, want)
		}
	}
	segments := func() int {
		t.Helper()
		segs, err := wal.Segments(store.WALDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return len(segs)
	}

	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	add(0, 30)
	caughtUp, err := crowdfair.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := crowdfair.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	converged(caughtUp)

	// The primary's auditor stops at the follower's position; more writes
	// fill several segments, and the checkpoint truncates the
	// sealed segments both have passed.
	p.AuditIncremental(cfg)
	add(30, 60)
	before := segments()
	if before < 2 {
		t.Fatalf("%d WAL segments: the writes did not rotate", before)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := segments(); after >= before {
		t.Fatalf("checkpoint truncated nothing: %d segments, then %d", before, after)
	}
	converged(caughtUp)

	// Now the primary audits to its head and checkpoints past every
	// segment the idle follower still needs.
	bootstrapped := idle.AppliedVersion()
	p.AuditIncremental(cfg)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	add(60, 65)
	if _, err := idle.CatchUp(); !errors.Is(err, crowdfair.ErrGap) {
		t.Fatalf("CatchUp past a truncated tail = %v, want ErrGap", err)
	}
	if got := idle.AppliedVersion(); got != bootstrapped {
		t.Fatalf("applied version moved %d -> %d across the gap", bootstrapped, got)
	}
	converged(caughtUp)
}

// TestReplicaWaitsOnTornTail pins a replica against records still being
// appended: on a closed primary's directory the last bytes of the store
// WAL's last segment and of the event log's last segment are cut off, as a
// write in flight leaves them. One pass applies the dense prefix below the
// torn version and the events before the torn one, and nothing
// past them; once the bytes are back, further passes reach the primary's
// version and event count.
func TestReplicaWaitsOnTornTail(t *testing.T) {
	dir := t.TempDir()
	u := crowdfair.NewUniverse("go", "sql")
	cfg := crowdfair.DefaultAuditConfig()
	p, err := crowdfair.OpenPlatform(dir, u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		w := &crowdfair.Worker{
			ID:     crowdfair.WorkerID(fmt.Sprintf("w%02d", i)),
			Skills: u.MustVector([]string{"go", "sql"}[i%2]),
		}
		if err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
		task := &crowdfair.Task{
			ID: crowdfair.TaskID(fmt.Sprintf("t%02d", i)), Requester: "r1",
			Skills: w.Skills, Reward: float64(1 + i%3),
		}
		if err := p.PostTask(task); err != nil {
			t.Fatal(err)
		}
		if err := p.Offer(task.ID, w.ID); err != nil {
			t.Fatal(err)
		}
	}
	version := p.Version()
	_, _, _, events := p.EntityCounts()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear each log's last segment, remembering the bytes and the version
	// of the record the cut tears.
	type torn struct {
		path string
		data []byte
	}
	var tears []torn
	tear := func(logDir string) uint64 {
		t.Helper()
		segs, err := wal.Segments(logDir)
		if err != nil || len(segs) == 0 {
			t.Fatalf("%s: %d segments (%v)", logDir, len(segs), err)
		}
		last := segs[len(segs)-1].Path
		data, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		var lastKey uint64
		r := wal.NewSegmentReader(data)
		for {
			k, _, err := r.Next()
			if err != nil {
				break
			}
			lastKey = k
		}
		if !r.Clean() || lastKey == 0 {
			t.Fatalf("%s: last segment not a clean non-empty image", last)
		}
		if err := os.WriteFile(last, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		tears = append(tears, torn{last, data})
		return lastKey
	}
	tornAt := tear(store.WALDir(dir))
	if k := tear(store.EventsDir(dir)); k != uint64(events) {
		t.Fatalf("torn event is record %d, the trace holds %d", k, events)
	}

	r, err := crowdfair.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.AppliedVersion(), tornAt-1; got != want {
		t.Fatalf("over a torn tail the replica reached version %d, want %d (the torn version is %d)", got, want, tornAt)
	}
	if got, want := r.EventCount(), events-1; got != want {
		t.Fatalf("over a torn event the replica holds %d events, want %d", got, want)
	}

	for _, tr := range tears {
		if err := os.WriteFile(tr.path, tr.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, r)
	if got := r.AppliedVersion(); got != version {
		t.Fatalf("after the tails were restored the replica is at version %d, the primary at %d", got, version)
	}
	if got := r.EventCount(); got != events {
		t.Fatalf("after the tails were restored the replica holds %d events, the primary %d", got, events)
	}
}
