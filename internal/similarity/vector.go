// Package similarity implements the similarity measures the fairness axioms
// of Borromeo et al. (EDBT 2017) are parameterised by.
//
// The paper states that "similarity can be platform-dependent and ranges
// from perfect equality to threshold-based similarity" (Axiom 1), names
// cosine similarity for skill vectors (Axiom 2), and for contributions
// names n-grams for text [Damashek 1995] and Discounted Cumulative Gain for
// ranked lists [Järvelin & Kekäläinen 2002] (Axiom 3). This package
// provides all of those, plus Jaccard/Dice/Hamming companions and
// attribute-set similarity with per-field tolerances.
package similarity

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/model"
)

// Cosine returns the cosine similarity of two Boolean skill vectors: the
// number of shared skills over the geometric mean of the set counts. Two
// all-false vectors are defined to be identical (1).
func Cosine(a, b model.SkillBits) float64 {
	na, nb := a.Count(), b.Count()
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(shared(a, b)) / math.Sqrt(float64(na)*float64(nb))
}

// Jaccard returns |a∩b| / |a∪b| for Boolean vectors; empty∪empty is 1.
func Jaccard(a, b model.SkillBits) float64 {
	s := shared(a, b)
	union := a.Count() + b.Count() - s
	if union == 0 {
		return 1
	}
	return float64(s) / float64(union)
}

// Dice returns 2|a∩b| / (|a|+|b|) for Boolean vectors; empty,empty is 1.
func Dice(a, b model.SkillBits) float64 {
	n := a.Count() + b.Count()
	if n == 0 {
		return 1
	}
	return 2 * float64(shared(a, b)) / float64(n)
}

// Hamming returns 1 - (differing positions / vector length): an agreement
// ratio in [0,1]. Vectors of differing length compare over the longer
// length, with missing positions treated as false.
func Hamming(a, b model.SkillBits) float64 {
	n := max(a.Len(), b.Len())
	if n == 0 {
		return 1
	}
	diff := a.Count() + b.Count() - 2*shared(a, b)
	return 1 - float64(diff)/float64(n)
}

// shared counts the positions set in both vectors. Bits past a vector's
// length are zero, so the shorter vector's words bound the walk.
func shared(a, b model.SkillBits) int {
	aw, bw := a.Words(), b.Words()
	if len(bw) < len(aw) {
		aw, bw = bw, aw
	}
	bw = bw[:len(aw)]
	n := 0
	for i, w := range aw {
		n += bits.OnesCount64(w & bw[i])
	}
	return n
}

// VectorMeasure is a named similarity function over skill vectors, the
// pluggable parameter of Axioms 1 and 2. It reads the packed form a stored
// worker or task carries (model.Worker.SkillBits, model.Task.SkillBits);
// callers write skills as a []bool SkillVector, and Clone packs it when the
// entity enters the store. Pack any other vector with SkillVector.Pack.
type VectorMeasure struct {
	// Name identifies the measure in configuration and reports.
	Name string
	// Func maps two vectors to a similarity in [0,1].
	Func func(a, b model.SkillBits) float64
}

// Built-in vector measures.
var (
	MeasureCosine  = VectorMeasure{Name: "cosine", Func: Cosine}
	MeasureJaccard = VectorMeasure{Name: "jaccard", Func: Jaccard}
	MeasureDice    = VectorMeasure{Name: "dice", Func: Dice}
	MeasureHamming = VectorMeasure{Name: "hamming", Func: Hamming}
	// MeasureExact realises the "perfect equality" end of the paper's
	// similarity spectrum: 1 if identical, else 0.
	MeasureExact = VectorMeasure{Name: "exact", Func: func(a, b model.SkillBits) float64 {
		if a.Len() == b.Len() && slices.Equal(a.Words(), b.Words()) {
			return 1
		}
		return 0
	}}
)
