package replica_test

import (
	"fmt"
	"testing"

	"repro/crowdfair"
	"repro/internal/fairness"
	"repro/internal/replica"
	"repro/internal/serve"
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
	add(30, 45)
	if err := p.Store().SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := p.Log().Sync(); err != nil {
		t.Fatal(err)
	}

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
