package similarity

import (
	"math"

	"repro/internal/model"
)

// AttrPolicy configures how two attribute sets (A_w or C_w) are compared.
// Axiom 1 requires comparing both the declared and computed attribute sets
// of two workers; the paper leaves the measure platform-dependent, so the
// policy supports exact categorical matching plus per-field numeric
// tolerances.
type AttrPolicy struct {
	// NumTolerance is the default absolute tolerance for numeric
	// attributes: |a-b| <= NumTolerance counts as a full match, with
	// similarity decaying linearly to 0 at 2*NumTolerance.
	// A zero tolerance demands exact numeric equality.
	NumTolerance float64
	// FieldTolerance overrides NumTolerance per attribute name.
	FieldTolerance map[string]float64
	// IgnoreFields lists attributes excluded from comparison (e.g. an
	// opaque internal id that happens to live in the attribute map).
	IgnoreFields map[string]bool
	// MissingPenalty is the similarity contributed by a field present on
	// one side only. 0 (the default) treats asymmetric fields as complete
	// mismatches.
	MissingPenalty float64
}

// fieldSim scores one attribute pair in [0,1].
func (p AttrPolicy) fieldSim(name string, a, b model.AttrValue) float64 {
	if a.Kind != b.Kind {
		return 0
	}
	if a.Kind == model.AttrStr {
		if a.Str == b.Str {
			return 1
		}
		return 0
	}
	tol := p.NumTolerance
	if t, ok := p.FieldTolerance[name]; ok {
		tol = t
	}
	d := math.Abs(a.Num - b.Num)
	switch {
	case d <= tol:
		return 1
	case tol == 0:
		return 0
	case d >= 2*tol:
		return 0
	default:
		return 1 - (d-tol)/tol
	}
}

// Similarity returns the mean per-field similarity of the two attribute
// sets over the union of their field names, in [0,1]. Two empty sets are
// identical (1). The union is walked without building an intermediate set:
// this function sits on the hot path of the Axiom-1 checker, which calls it
// twice per candidate worker pair.
func (p AttrPolicy) Similarity(a, b model.Attributes) float64 {
	var total float64
	union := 0
	for name, av := range a {
		if p.IgnoreFields[name] {
			continue
		}
		union++
		if bv, ok := b[name]; ok {
			total += p.fieldSim(name, av, bv)
		} else {
			total += p.MissingPenalty
		}
	}
	for name := range b {
		if p.IgnoreFields[name] {
			continue
		}
		if _, ok := a[name]; ok {
			continue // already counted in the first pass
		}
		union++
		total += p.MissingPenalty
	}
	if union == 0 {
		return 1
	}
	return total / float64(union)
}

// TolerantAttrPolicy returns a policy with the given default numeric
// tolerance, suitable for computed attributes like acceptance ratios where
// small differences should not distinguish workers.
func TolerantAttrPolicy(numTolerance float64) AttrPolicy {
	return AttrPolicy{NumTolerance: numTolerance}
}
