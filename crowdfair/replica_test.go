package crowdfair_test

import (
	"fmt"
	"testing"

	"repro/crowdfair"
	"repro/internal/audit"
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

	// Watermarks cover every replica shard and sum to a consistent layout.
	marks := r.Watermarks()
	if len(marks) != r.Store().ShardCount() {
		t.Fatalf("%d watermarks for %d shards", len(marks), r.Store().ShardCount())
	}
	var max uint64
	for _, m := range marks {
		if m > max {
			max = m
		}
	}
	if max != r.AppliedVersion() {
		t.Fatalf("max shard watermark %d != applied version %d", max, r.AppliedVersion())
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
