package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGiniKnownValues(t *testing.T) {
	if got := Gini([]float64{1, 1, 1, 1}); !almost(got, 0) {
		t.Errorf("equal incomes Gini = %v, want 0", got)
	}
	// One person has everything among n=4: Gini = (n-1)/n = 0.75.
	if got := Gini([]float64{0, 0, 0, 10}); !almost(got, 0.75) {
		t.Errorf("max inequality Gini = %v, want 0.75", got)
	}
	if Gini(nil) != 0 || Gini([]float64{0, 0}) != 0 {
		t.Error("degenerate Gini should be 0")
	}
}

func TestGiniNegativeClamped(t *testing.T) {
	// Negative incomes are clamped to zero, not allowed to produce
	// out-of-range coefficients.
	g := Gini([]float64{-5, 10})
	if g < 0 || g >= 1 {
		t.Fatalf("Gini with negative input = %v, outside [0,1)", g)
	}
}

// boundIncomes maps arbitrary generated floats into a realistic income
// range; income sums at 1e308 overflow any summation and are outside the
// library's documented domain.
func boundIncomes(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 1
		}
		out[i] = math.Mod(math.Abs(x), 1e6)
	}
	return out
}

func TestGiniRangeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		g := Gini(boundIncomes(xs))
		return g >= 0 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGiniScaleInvariantProperty(t *testing.T) {
	f := func(xs []float64) bool {
		pos := boundIncomes(xs)
		scaled := make([]float64, len(pos))
		for i, x := range pos {
			scaled[i] = 3 * x
		}
		return math.Abs(Gini(pos)-Gini(scaled)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
