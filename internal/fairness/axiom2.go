package fairness

import (
	"fmt"
	"math"

	"repro/internal/eventlog"
	"repro/internal/model"
	"repro/internal/store"
)

// CheckAxiom2 audits requester fairness in task assignment:
//
//	"Given two tasks ti and tj posted by different requesters, if the
//	 required skills Sti and Stj are similar, and the two tasks offer
//	 comparable rewards, then ti and tj should be shown to the same set
//	 of workers."
//
// Audiences are reconstructed from TaskOffered events. Skill similarity
// uses cfg.SkillMeasure (the paper suggests cosine); rewards are comparable
// when their relative difference is within cfg.RewardTolerance. A pair of
// comparable tasks whose audiences overlap (Jaccard) below
// cfg.AccessThreshold is a violation.
func CheckAxiom2(st *store.Store, log *eventlog.Log, cfg Config) (rep *Report) {
	log.ReadLedger(func(d *eventlog.Ledger) { rep = Axiom2Pairs(st, d, cfg, st.TaskIDs()) })
	return rep
}

// Axiom2Pairs audits, under CheckAxiom2's predicates and over the audiences
// of the trace's ledger, every cross-requester candidate pair with
// at least one endpoint in ids (sorted ascending, deduplicated): every task
// id for the full scan, or the tasks whose content or audience changed for
// an incremental pass (see Axiom1Pairs). Report.Checked counts the pairs
// examined.
func Axiom2Pairs(st *store.Store, d *eventlog.Ledger, cfg Config, ids []model.TaskID) *Report {
	comparable := cfg.comparableTasks()
	accessThr := orDefault(cfg.AccessThreshold, 1.0)
	return walkPairs(Axiom2RequesterAssignment, ids, cfg.provider(st).TaskPartners, st.PeekTask, cfg.RecordCheckedPairs,
		func(a, b *model.Task) (bool, Violation) {
			// The candidate index knows nothing of requesters; the axiom
			// quantifies over tasks of distinct requesters.
			if a.Requester == b.Requester {
				return false, Violation{}
			}
			if !comparable(a, b) {
				return true, Violation{}
			}
			overlap := jaccard(d.Audience(a.ID), d.Audience(b.ID))
			if overlap >= accessThr {
				return true, Violation{}
			}
			return true, Violation{
				Axiom:    Axiom2RequesterAssignment,
				Subjects: []string{string(a.ID), string(b.ID)},
				Detail: fmt.Sprintf("comparable tasks (rewards %.2f vs %.2f) reached different audiences: overlap %.2f < %.2f",
					a.Reward, b.Reward, overlap, accessThr),
				Severity: accessThr - overlap,
			}
		})
}

// comparableTasks is Axiom 2's premise on two tasks' content at cfg's
// thresholds: similar required skills and comparable rewards. The axiom
// applies it to tasks of distinct requesters only.
func (c *Config) comparableTasks() func(a, b *model.Task) bool {
	skillThr := orDefault(c.SkillThreshold, 0.9)
	rewardTol := orDefault(c.RewardTolerance, 0.1)
	measure := c.skillMeasure()
	return func(a, b *model.Task) bool {
		return measure.Func(a.SkillBits(), b.SkillBits()) >= skillThr && comparableRewards(a.Reward, b.Reward, rewardTol)
	}
}

// comparableRewards reports whether two rewards differ relatively by at
// most tol (relative to the larger reward; two zero rewards are
// comparable).
func comparableRewards(a, b, tol float64) bool {
	hi := math.Max(math.Abs(a), math.Abs(b))
	if hi == 0 {
		return true
	}
	return math.Abs(a-b)/hi <= tol
}
