package replica_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/crowdfair"
	"repro/internal/fairness"
	"repro/internal/replica"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wal"
)

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

	r, err := replica.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
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
	got = [4]int{st.WorkerCount(), st.TaskCount(), st.ContributionCount(), r.Log().Len()}
	if got != want {
		t.Fatalf("replica counts %v, primary %v", got, want)
	}
	gotFP := serve.AuditFingerprint(fairness.CheckAll(st, r.Log(), cfg))
	if wantFP := serve.AuditFingerprint(p.AuditFairness(cfg)); gotFP != wantFP {
		t.Fatalf("replica audit fingerprint %s, primary %s", gotFP, wantFP)
	}
}

// TestCheckpointTruncatesUnderReplica pins the replica against a primary
// checkpoint that truncates WAL segments while it tails them. A follower
// that caught up keeps converging: the checkpoint drops only segments the
// primary's auditor has passed, and the follower jumps over the ones it
// was parked on. A follower that read nothing past its bootstrap, when the
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
	converged := func(r *replica.Replica) {
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
		got := serve.AuditFingerprint(fairness.CheckAll(r.Store(), r.Log(), cfg))
		if want := serve.AuditFingerprint(p.AuditFairness(cfg)); got != want {
			t.Fatalf("replica audit fingerprint %s, primary %s", got, want)
		}
	}
	segments := func() int {
		t.Helper()
		n := 0
		for i := 0; i < p.Store().ShardCount(); i++ {
			segs, err := wal.Segments(store.WALShardDir(dir, i))
			if err != nil {
				t.Fatal(err)
			}
			n += len(segs)
		}
		return n
	}

	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	add(0, 30)
	caughtUp, err := replica.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := replica.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	converged(caughtUp)

	// The primary's auditor stops at the follower's position; more writes
	// fill several segments per shard, and the checkpoint truncates the
	// sealed segments both have passed.
	p.AuditIncremental(cfg)
	add(30, 60)
	before := segments()
	if before < 2*p.Store().ShardCount() {
		t.Fatalf("%d WAL segments over %d shards: the writes did not rotate", before, p.Store().ShardCount())
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
	if _, err := idle.CatchUp(); !errors.Is(err, replica.ErrGap) {
		t.Fatalf("CatchUp past a truncated tail = %v, want ErrGap", err)
	}
	if got := idle.AppliedVersion(); got != bootstrapped {
		t.Fatalf("applied version moved %d -> %d across the gap", bootstrapped, got)
	}
	converged(caughtUp)
}
