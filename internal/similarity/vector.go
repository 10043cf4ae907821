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

	"repro/internal/model"
)

// Cosine returns the cosine similarity of two Boolean skill vectors: the
// number of shared skills over the geometric mean of the set counts. Two
// all-false vectors are defined to be identical (1).
func Cosine(a, b model.SkillVector) float64 {
	shared, na, nb := overlap(a, b)
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(shared) / math.Sqrt(float64(na)*float64(nb))
}

// Jaccard returns |a∩b| / |a∪b| for Boolean vectors; empty∪empty is 1.
func Jaccard(a, b model.SkillVector) float64 {
	shared, na, nb := overlap(a, b)
	union := na + nb - shared
	if union == 0 {
		return 1
	}
	return float64(shared) / float64(union)
}

// Dice returns 2|a∩b| / (|a|+|b|) for Boolean vectors; empty,empty is 1.
func Dice(a, b model.SkillVector) float64 {
	shared, na, nb := overlap(a, b)
	if na+nb == 0 {
		return 1
	}
	return 2 * float64(shared) / float64(na+nb)
}

// Hamming returns 1 - (differing positions / vector length): an agreement
// ratio in [0,1]. Vectors of differing length compare over the longer
// length, with missing positions treated as false.
func Hamming(a, b model.SkillVector) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	diff := 0
	for i := 0; i < n; i++ {
		av := i < len(a) && a[i]
		bv := i < len(b) && b[i]
		if av != bv {
			diff++
		}
	}
	return 1 - float64(diff)/float64(n)
}

// overlap counts shared set bits and each vector's set count.
func overlap(a, b model.SkillVector) (shared, na, nb int) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] && b[i] {
			shared++
		}
	}
	for _, v := range a {
		if v {
			na++
		}
	}
	for _, v := range b {
		if v {
			nb++
		}
	}
	return shared, na, nb
}

// VectorMeasure is a named similarity function over skill vectors, the
// pluggable parameter of Axioms 1 and 2.
type VectorMeasure struct {
	// Name identifies the measure in configuration and reports.
	Name string
	// Func maps two vectors to a similarity in [0,1].
	Func func(a, b model.SkillVector) float64
}

// Built-in vector measures.
var (
	MeasureCosine  = VectorMeasure{Name: "cosine", Func: Cosine}
	MeasureJaccard = VectorMeasure{Name: "jaccard", Func: Jaccard}
	MeasureDice    = VectorMeasure{Name: "dice", Func: Dice}
	MeasureHamming = VectorMeasure{Name: "hamming", Func: Hamming}
	// MeasureExact realises the "perfect equality" end of the paper's
	// similarity spectrum: 1 if identical, else 0.
	MeasureExact = VectorMeasure{Name: "exact", Func: func(a, b model.SkillVector) float64 {
		if a.Equal(b) {
			return 1
		}
		return 0
	}}
)
