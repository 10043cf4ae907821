package crowdfair_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/crowdfair"
	"repro/internal/audit"
)

// reportJSON canonicalises an audit-report slice for byte-equality checks.
func reportJSON(t *testing.T, reps []*crowdfair.FairnessReport) string {
	t.Helper()
	blob, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// buildGroupCommitScenario populates a platform with a fixed entity set:
// the worker population is inserted by conc concurrent appenders over
// disjoint ID ranges (exercising group commit when the platform's WAL
// policy groups), then tasks and offers are laid down serially so the
// event trace is identical across runs.
func buildGroupCommitScenario(t *testing.T, p *crowdfair.Platform, u *crowdfair.Universe, conc int) {
	t.Helper()
	if err := p.AddRequester(&crowdfair.Requester{ID: "r1"}); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	perG := workers / conc
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := g*perG + i
				w := &crowdfair.Worker{
					ID:       crowdfair.WorkerID(fmt.Sprintf("w%02d", n)),
					Declared: crowdfair.Attributes{"country": crowdfair.Str("jp")},
					Computed: crowdfair.Attributes{"acceptance_ratio": crowdfair.Num(float64(n%10) / 10)},
					Skills:   u.MustVector([]string{"go", "sql"}[n%2]),
				}
				if err := p.AddWorker(w); err != nil {
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
	for i := 0; i < 6; i++ {
		task := &crowdfair.Task{
			ID:        crowdfair.TaskID(fmt.Sprintf("t%02d", i)),
			Requester: "r1",
			Skills:    u.MustVector("go"),
			Reward:    float64(1 + i%3),
		}
		if err := p.PostTask(task); err != nil {
			t.Fatal(err)
		}
		if err := p.Offer(task.ID, crowdfair.WorkerID(fmt.Sprintf("w%02d", (2*i)%16))); err != nil {
			t.Fatal(err)
		}
	}
}

// converge drains r until it reaches the primary's version and returns the
// mutations applied. Under SyncInterval an acknowledged write reaches its
// segment file only at the committer's next tick, so the store tail may
// take several passes; the event trace is synced first, so every pass
// reads all of it.
func converge(t *testing.T, p *crowdfair.Platform, r *crowdfair.Replica) int {
	t.Helper()
	if err := p.Log().Sync(); err != nil {
		t.Fatal(err)
	}
	total := 0
	deadline := time.Now().Add(10 * time.Second)
	for {
		total += drain(t, r)
		if r.AppliedVersion() >= p.Store().Version() {
			return total
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %d, primary at %d", r.AppliedVersion(), p.Store().Version())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitReplicaAndAuditDeterminism is the cross-policy
// determinism contract at the platform level: the same scenario committed
// under every WAL sync policy and appender concurrency must give (a) a
// replica that converges to the primary's exact version via CatchUp, and
// (b) audit reports —
// primary and replica — that are byte-identical across every
// (policy, concurrency) cell. Sync policy buys durability, never different
// results.
func TestGroupCommitReplicaAndAuditDeterminism(t *testing.T) {
	u := crowdfair.NewUniverse("go", "sql")
	cfg := crowdfair.DefaultAuditConfig()
	policies := []crowdfair.SyncPolicy{
		crowdfair.SyncNever,
		crowdfair.SyncInterval(time.Millisecond),
		crowdfair.SyncAlways,
	}
	var wantAudit string
	for _, conc := range []int{1, 4} {
		for _, pol := range policies {
			label := fmt.Sprintf("conc=%d/%s", conc, pol)
			dir := t.TempDir()
			p, err := crowdfair.OpenPlatformWAL(dir, u, cfg, crowdfair.WALOptions{Sync: pol})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			buildGroupCommitScenario(t, p, u, conc)

			// CatchUp parity: the follower drains the batched WAL tail to
			// exactly the primary's version.
			r, err := crowdfair.OpenReplica(dir)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if n := converge(t, p, r); n == 0 {
				t.Fatalf("%s: replica applied nothing", label)
			}
			if got, want := r.AppliedVersion(), p.Store().Version(); got != want {
				t.Fatalf("%s: replica at %d, primary at %d", label, got, want)
			}

			primaryReps := p.AuditIncremental(cfg)
			replicaReps := r.AuditIncremental(cfg)
			if !audit.ViolationsEqual(primaryReps, replicaReps) {
				t.Fatalf("%s: replica audit diverges from primary", label)
			}
			pj, rj := reportJSON(t, primaryReps), reportJSON(t, replicaReps)
			if pj != rj {
				t.Fatalf("%s: replica audit not byte-identical to primary", label)
			}
			if wantAudit == "" {
				wantAudit = pj
			} else if pj != wantAudit {
				t.Fatalf("%s: audit report differs from other policy/concurrency cells", label)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
