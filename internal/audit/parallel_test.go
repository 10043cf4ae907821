package audit

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fairness"
	"repro/internal/par"
	"repro/internal/similarity"
)

// renderReports serialises a report set to a stable byte form: axiom,
// Checked count, and every violation's rendered string, in report order.
// Two runs that produce different bytes here differ observably.
func renderReports(reps []*fairness.Report) string {
	var b strings.Builder
	for _, r := range reps {
		fmt.Fprintf(&b, "%s checked=%d violations=%d\n", r.Axiom, r.Checked, len(r.Violations))
		for _, v := range r.Violations {
			b.WriteString(v.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestParallelAuditMatchesSerial is the determinism gate for the parallel
// audit pipeline: the same mutation stream driven through two engines in
// lockstep — one audited with the worker budget pinned to 1 (every fan-out
// runs inline, i.e. the serial pipeline), one with a multi-worker budget —
// must render byte-identical reports every round, across seeds and both
// candidate sources: the skill join (lsh) and, under Hamming, which has no
// prefix bound, the all-pairs scan. Run with -race to also pin down that
// the parallel passes share no unsynchronised state. The subtest path
// keeps its "shards=1" segment, the store's one width, so the names stay
// those of earlier runs.
func TestParallelAuditMatchesSerial(t *testing.T) {
	defer par.SetMaxWorkers(0)
	for _, seed := range []uint64{7, 41} {
		for _, backend := range []string{"hamming", "lsh"} {
			seed, backend := seed, backend
			t.Run(fmt.Sprintf("seed=%d/shards=1/%s", seed, backend), func(t *testing.T) {
				cfg := lshConfig(seed * 2027)
				if backend == "hamming" {
					cfg = fairness.DefaultConfig()
					cfg.SkillMeasure = similarity.MeasureHamming
				}
				// Two identical scenarios: same seed, same RNG, so the
				// mutation streams are byte-for-byte the same trace.
				sS := newScenario(t, seed)
				sP := newScenario(t, seed)
				sS.seed(40, 16, 200, 24)
				sP.seed(40, 16, 200, 24)
				engS := New(sS.st, sS.log, cfg)
				engP := New(sP.st, sP.log, cfg)
				for round := 0; round < 6; round++ {
					for i := 0; i < 12; i++ {
						sS.mutate()
						sP.mutate()
					}
					par.SetMaxWorkers(1)
					serial := renderReports(engS.Audit())
					par.SetMaxWorkers(4)
					parallel := renderReports(engP.Audit())
					if serial != parallel {
						t.Fatalf("round %d: parallel audit diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
							round, serial, parallel)
					}
				}
			})
		}
	}
}
