package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fairness"
)

// vsum is the order-free digest of a violation multiset: the sum mod 2²⁵⁶ of
// SHA-256(v.String()) over its members, in four little-endian limbs. Addition
// commutes and subtraction undoes it, so the engine keeps one per axiom
// beside the standing slice it summarises — add on insert, sub on retract —
// and a pass renders only the violations it changed.
type vsum [4]uint64

func (s *vsum) add(v fairness.Violation) { s.move(v, bits.Add64) }
func (s *vsum) sub(v fairness.Violation) { s.move(v, bits.Sub64) }

func (s *vsum) move(v fairness.Violation, op func(x, y, carry uint64) (uint64, uint64)) {
	h := sha256.Sum256([]byte(v.String()))
	var c uint64
	for i := range s {
		s[i], c = op(s[i], binary.LittleEndian.Uint64(h[8*i:]), c)
	}
}

// digest hashes, per report, its "axiom|checked|count" header and the sum of
// its violations, all reports in one SHA-256.
func digest(reps []*fairness.Report, sums []vsum) string {
	h := sha256.New()
	var limbs [32]byte
	for i, r := range reps {
		fmt.Fprintf(h, "%s|%d|%d\n", r.Axiom, r.Checked, len(r.Violations))
		for k, l := range sums[i] {
			binary.LittleEndian.PutUint64(limbs[8*k:], l)
		}
		h.Write(limbs[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint reduces a report set to a stable hex digest of every axiom's
// name, Checked count and rendered violations, whatever order the violations
// come in. It renders and hashes every violation, and so is the oracle for
// Pass.Fingerprint, which the engine reads off its running sums: the two
// agree after every pass (the determinism tests compare them).
func Fingerprint(reps []*fairness.Report) string {
	sums := make([]vsum, len(reps))
	for i, r := range reps {
		for _, v := range r.Violations {
			sums[i].add(v)
		}
	}
	return digest(reps, sums)
}

// apply folds one pass's delta into a standing violation slice and its sum:
// the result is prev − gone + fresh in ViolationLess order. prev must be
// sorted with no two members sharing their subjects (true of Axioms 1–4,
// whose subjects identify the audited pair or worker), gone a sorted
// sub-sequence of it, and fresh sorted. A retract/re-add pair that is
// field-for-field identical cancels — a dirty entity's unchanged violations
// are not changes — and changed counts the edits that remain. With none the
// result is prev itself; otherwise it is a fresh slice, because callers alias
// the ones earlier passes handed them. No input is written.
func apply(prev, gone, fresh []fairness.Violation, sum *vsum) (next []fairness.Violation, changed int) {
	// rest is the part of prev not yet copied; each edit is located in it by
	// binary search, so the merge otherwise just moves memory.
	rest := prev
	edit := func(v fairness.Violation, retract bool) {
		if next == nil {
			next = make([]fairness.Violation, 0, len(prev)-len(gone)+len(fresh)) // exact: cancelled pairs leave both
		}
		at := sort.Search(len(rest), func(k int) bool { return !fairness.ViolationLess(rest[k], v) })
		next = append(next, rest[:at]...)
		if retract {
			sum.sub(v)
			rest = rest[at+1:] // gone is a sub-sequence of prev: rest[at] is v
		} else {
			sum.add(v)
			next, rest = append(next, v), rest[at:]
		}
		changed++
	}
	i, j := 0, 0
	for i < len(gone) || j < len(fresh) {
		switch {
		case j == len(fresh) || i < len(gone) && fairness.ViolationLess(gone[i], fresh[j]):
			edit(gone[i], true)
			i++
		case i == len(gone) || fairness.ViolationLess(fresh[j], gone[i]):
			edit(fresh[j], false)
			j++
		default: // same subjects: a change only if the verdict itself moved
			if g, f := gone[i], fresh[j]; g.Axiom != f.Axiom || g.Detail != f.Detail || g.Severity != f.Severity {
				edit(g, true)
				edit(f, false)
			}
			i, j = i+1, j+1
		}
	}
	if changed == 0 {
		return prev, 0
	}
	return append(next, rest...), changed
}
