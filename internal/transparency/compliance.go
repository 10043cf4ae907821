package transparency

import (
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/model"
)

// AxiomReport is the outcome of auditing a transparency axiom (6 or 7).
type AxiomReport struct {
	Axiom int
	// Required lists the field refs the axiom demands.
	Required []FieldRef
	// Missing lists required refs the audited party never disclosed.
	Missing []FieldRef
	// Detail holds the per-entity gaps.
	Detail Gaps
}

// Satisfied reports whether the axiom held.
func (r *AxiomReport) Satisfied() bool { return len(r.Missing) == 0 && r.Detail.Len() == 0 }

// String renders a one-line summary.
func (r *AxiomReport) String() string {
	return fmt.Sprintf("Axiom %d: required=%d missing=%d gaps=%d",
		r.Axiom, len(r.Required), len(r.Missing), r.Detail.Len())
}

// Gap is one subject seen in a trace that was never disclosed one required
// field: an Axiom 6 or 7 gap, or a broken always-rule of a policy.
type Gap struct {
	// Axiom is 6 or 7 for an axiom gap and 0 for a policy gap.
	Axiom int
	// Policy names the policy of a policy gap.
	Policy string
	// Field is the field never disclosed.
	Field FieldRef
	// Subject is the kind of entity that lacks it and ID its id.
	Subject Subject
	ID      string
	// Owner is the requester of a task subject.
	Owner model.RequesterID
}

// String renders the gap as one human-readable line.
func (g Gap) String() string {
	switch {
	case g.Axiom == 0:
		return fmt.Sprintf("policy %q promises %s to workers always, but worker %s never saw it", g.Policy, g.Field, g.ID)
	case g.Subject == SubjectWorker:
		return fmt.Sprintf("platform never disclosed %s to worker %s", g.Field, g.ID)
	case g.Subject == SubjectTask:
		return fmt.Sprintf("task %s (requester %s) never disclosed %s", g.ID, g.Owner, g.Field)
	default:
		return fmt.Sprintf("requester %s never disclosed %s", g.ID, g.Field)
	}
}

// CheckAxiom6 audits requester transparency:
//
//	"A Requester must make available requester-dependent working conditions
//	 such as hourly wage and time between submission of work and payment,
//	 and task-dependent working conditions such as recruitment criteria and
//	 rejection criteria."
//
// For each requester appearing in the log, every Axiom-6 field of the
// catalogue must appear in at least one Disclosure event attributed to that
// requester (requester-subject fields), and each of their tasks must have
// its task-subject fields disclosed.
func CheckAxiom6(cat *Catalogue, log *eventlog.Log) *AxiomReport {
	rep := &AxiomReport{Axiom: 6, Required: cat.RequiredFor(6)}
	var walks []walk
	for _, ref := range rep.Required {
		switch ref.Subject {
		case SubjectRequester:
			walks = append(walks, walk{Gap{Axiom: 6, Field: ref, Subject: SubjectRequester}, eventlog.KindRequester, eventlog.RolePosted})
		case SubjectTask:
			walks = append(walks, walk{Gap{Axiom: 6, Field: ref, Subject: SubjectTask}, eventlog.KindTask, eventlog.RolePosted})
		}
	}
	rep.Detail, rep.Missing = gaps(log, walks)
	return rep
}

// CheckAxiom7 audits platform transparency:
//
//	"The platform must disclose, for each worker w, computed attributes Cw
//	 such as performance and acceptance ratio."
//
// Every worker that appears in the log (joined or active) must have each
// Axiom-7 field disclosed to them at least once.
func CheckAxiom7(cat *Catalogue, log *eventlog.Log) *AxiomReport {
	rep := &AxiomReport{Axiom: 7, Required: cat.RequiredFor(7)}
	var walks []walk
	for _, ref := range rep.Required {
		if ref.Subject == SubjectWorker {
			walks = append(walks, walk{Gap{Axiom: 7, Field: ref, Subject: SubjectWorker}, eventlog.KindWorker,
				eventlog.RoleJoined | eventlog.RoleStarted | eventlog.RoleSubmitted})
		}
	}
	rep.Detail, rep.Missing = gaps(log, walks)
	return rep
}

// PolicyCompliance audits an event trace against a specific policy: every
// field the policy promises "always" to an audience must appear as a
// Disclosure event at least once for each member of that audience seen in
// the trace. It returns one gap per (rule, worker) left unmet, rule by rule
// in policy order and workers in id order (none = compliant).
//
// Conditional and triggered rules are not audited here — verifying them
// requires replaying contexts, which the simulator does natively by only
// emitting Disclosure events the policy mandates.
func PolicyCompliance(p *Policy, log *eventlog.Log) Gaps {
	var walks []walk
	for _, r := range p.Rules {
		if r.On != TriggerAlways || r.When != nil {
			continue
		}
		if r.To != AudienceWorkers && r.To != AudiencePublic {
			continue
		}
		walks = append(walks, walk{Gap{Policy: p.Name, Field: r.Field, Subject: SubjectWorker}, eventlog.KindWorker, eventlog.RoleJoined})
	}
	out, _ := gaps(log, walks)
	return out
}

// walk is one required field checked against every subject of a kind
// holding one of roles; proto is the gap each undisclosed subject yields.
type walk struct {
	proto Gap
	kind  eventlog.Kind
	roles eventlog.Role
}

// Gaps is the gaps of an audit, in walk order and then subject id order,
// as the trace stood when the audit read it: later appends change nothing
// in it. Each walk's gaps are kept as indexes into the ledger's id table,
// so a call costs four bytes a gap rather than a Gap. The zero value holds
// no gaps.
type Gaps struct {
	parts []gapPart
	n     int
}

// gapPart is one walk's gaps: proto with ID set to ids[i], and Owner to
// owners[j] for a task walk, for the j-th index i of idx.
type gapPart struct {
	proto  Gap
	ids    []string
	idx    []int32
	owners []model.RequesterID
}

// Len returns the number of gaps.
func (g Gaps) Len() int { return g.n }

// At returns gap i, 0 <= i < Len().
func (g Gaps) At(i int) Gap {
	j := i
	for _, p := range g.parts {
		if j >= 0 && j < len(p.idx) {
			gap := p.proto
			gap.ID = p.ids[p.idx[j]]
			if p.owners != nil {
				gap.Owner = p.owners[j]
			}
			return gap
		}
		j -= len(p.idx)
	}
	panic(fmt.Sprintf("transparency: gap index %d out of range [0:%d]", i, g.n))
}

// gaps reads the log's disclosure ledger once and returns the gaps of each
// walk, with the fields that had any.
func gaps(log *eventlog.Log, walks []walk) (out Gaps, missing []FieldRef) {
	if len(walks) == 0 {
		return Gaps{}, nil
	}
	log.ReadLedger(func(d *eventlog.Ledger) {
		for _, w := range walks {
			idx := d.Undisclosed(w.kind, w.roles, w.proto.Field.String())
			if len(idx) == 0 {
				continue
			}
			p := gapPart{proto: w.proto, ids: d.IDs(w.kind), idx: idx}
			if w.kind == eventlog.KindTask {
				p.owners = d.OwnersOf(idx)
			}
			out.parts = append(out.parts, p)
			out.n += len(idx)
			missing = append(missing, w.proto.Field)
		}
	})
	return out, missing
}
