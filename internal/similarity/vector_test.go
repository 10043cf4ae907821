package similarity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func vec(bits string) model.SkillVector {
	v := model.NewSkillVector(len(bits))
	for i := range bits {
		v[i] = bits[i] == '1'
	}
	return v
}

func TestCosineKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"110", "110", 1},
		{"100", "010", 0},
		{"110", "011", 0.5},
		{"000", "000", 1},
		{"000", "100", 0},
	}
	for _, c := range cases {
		if got := Cosine(vec(c.a), vec(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Cosine(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJaccardKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"110", "110", 1},
		{"110", "011", 1.0 / 3},
		{"100", "010", 0},
		{"000", "000", 1},
	}
	for _, c := range cases {
		if got := Jaccard(vec(c.a), vec(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Jaccard(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDiceKnownValues(t *testing.T) {
	if got := Dice(vec("110"), vec("011")); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Dice = %v, want 0.5", got)
	}
	if Dice(vec("00"), vec("00")) != 1 {
		t.Error("empty Dice should be 1")
	}
}

func TestHammingKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"1010", "1010", 1},
		{"1010", "0101", 0},
		{"1100", "1000", 0.75},
		{"", "", 1},
	}
	for _, c := range cases {
		if got := Hamming(vec(c.a), vec(c.b)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Hamming(%s,%s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHammingDifferentLengths(t *testing.T) {
	// Missing positions are false: "1" vs "10" agree everywhere.
	if got := Hamming(vec("1"), vec("10")); got != 1 {
		t.Errorf("Hamming over shorter vector = %v, want 1", got)
	}
	if got := Hamming(vec("1"), vec("11")); got != 0.5 {
		t.Errorf("Hamming with extra set bit = %v, want 0.5", got)
	}
}

func TestMeasureExact(t *testing.T) {
	if MeasureExact.Func(vec("101"), vec("101")) != 1 {
		t.Error("exact equal = 0")
	}
	if MeasureExact.Func(vec("101"), vec("100")) != 0 {
		t.Error("exact unequal = 1")
	}
}

// Properties every measure must satisfy: symmetry, range [0,1], and
// self-similarity 1.
func TestMeasureProperties(t *testing.T) {
	measures := []VectorMeasure{MeasureCosine, MeasureJaccard, MeasureDice, MeasureHamming, MeasureExact}
	f := func(aBits, bBits []bool) bool {
		a, b := model.SkillVector(aBits), model.SkillVector(bBits)
		// Pad to equal length: the axioms compare same-universe vectors.
		for len(a) < len(b) {
			a = append(a, false)
		}
		for len(b) < len(a) {
			b = append(b, false)
		}
		for _, m := range measures {
			ab, ba := m.Func(a, b), m.Func(b, a)
			if math.Abs(ab-ba) > 1e-12 {
				return false
			}
			if ab < 0 || ab > 1 {
				return false
			}
			if m.Func(a, a) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
