package similarity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func vec(bits string) model.SkillBits {
	v := model.NewSkillVector(len(bits))
	for i := range bits {
		v[i] = bits[i] == '1'
	}
	return v.Pack()
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
		pa, pb := a.Pack(), b.Pack()
		for _, m := range measures {
			ab, ba := m.Func(pa, pb), m.Func(pb, pa)
			if math.Abs(ab-ba) > 1e-12 {
				return false
			}
			if ab < 0 || ab > 1 {
				return false
			}
			if m.Func(pa, pa) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// boolReference restates the five built-in measures over []bool, one
// position at a time: the arithmetic the packed kernels must reproduce bit
// for bit.
var boolReference = map[string]func(a, b []bool) float64{
	"cosine": func(a, b []bool) float64 {
		s, na, nb := boolCounts(a, b)
		if na == 0 && nb == 0 {
			return 1
		}
		if na == 0 || nb == 0 {
			return 0
		}
		return float64(s) / math.Sqrt(float64(na)*float64(nb))
	},
	"jaccard": func(a, b []bool) float64 {
		s, na, nb := boolCounts(a, b)
		if na+nb-s == 0 {
			return 1
		}
		return float64(s) / float64(na+nb-s)
	},
	"dice": func(a, b []bool) float64 {
		s, na, nb := boolCounts(a, b)
		if na+nb == 0 {
			return 1
		}
		return 2 * float64(s) / float64(na+nb)
	},
	"hamming": func(a, b []bool) float64 {
		n := max(len(a), len(b))
		if n == 0 {
			return 1
		}
		diff := 0
		for i := 0; i < n; i++ {
			if (i < len(a) && a[i]) != (i < len(b) && b[i]) {
				diff++
			}
		}
		return 1 - float64(diff)/float64(n)
	},
	"exact": func(a, b []bool) float64 {
		if slices.Equal(a, b) {
			return 1
		}
		return 0
	},
}

// boolCounts counts the positions set in both vectors and in each.
func boolCounts(a, b []bool) (shared, na, nb int) {
	for i, v := range a {
		if v {
			na++
			if i < len(b) && b[i] {
				shared++
			}
		}
	}
	for _, v := range b {
		if v {
			nb++
		}
	}
	return shared, na, nb
}

// The built-in measures read only the packed form; on every pair they must
// return the []bool reference's float64 exactly. Lengths run 0-200 (most
// not multiples of 64), densities include empty and full vectors, and a
// third of the pairs differ in length (Hamming pads with false).
func TestPackedMeasuresMatchBoolReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	densities := []float64{0, 0.02, 0.1, 0.5, 1}
	random := func(n int) []bool {
		p := densities[rng.Intn(len(densities))]
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Float64() < p
		}
		return v
	}
	measures := []VectorMeasure{MeasureCosine, MeasureJaccard, MeasureDice, MeasureHamming, MeasureExact}
	check := func(a, b []bool) {
		t.Helper()
		pa, pb := model.SkillVector(a).Pack(), model.SkillVector(b).Pack()
		if _, na, _ := boolCounts(a, nil); pa.Len() != len(a) || pa.Count() != na || len(pa.Words()) != (len(a)+63)/64 {
			t.Fatalf("Pack(%s): len %d count %d words %d", model.SkillVector(a), pa.Len(), pa.Count(), len(pa.Words()))
		}
		for _, m := range measures {
			got, want := m.Func(pa, pb), boolReference[m.Name](a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s(%s, %s) = %v, []bool reference %v", m.Name, model.SkillVector(a), model.SkillVector(b), got, want)
			}
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 200} {
		check(nil, make([]bool, n))
		check(make([]bool, n), make([]bool, n))
	}
	for trial := 0; trial < 5000; trial++ {
		la := rng.Intn(201)
		lb := la
		if rng.Intn(3) == 0 {
			lb = rng.Intn(201)
		}
		a := random(la)
		b := random(lb)
		if rng.Intn(4) == 0 {
			b = append(b[:0:0], a...) // equal vectors exercise exact's 1
		}
		check(a, b)
	}
}

// BenchmarkSkillCosine times the Axiom 1/2 skill kernel at crowdbench's
// population shape: a 700-skill universe, 4-5 skills set per worker, and
// 1,023 pairs per iteration (consecutive workers of 1,024).
func BenchmarkSkillCosine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]model.SkillBits, 1024)
	for i := range vs {
		v := model.NewSkillVector(700)
		for k := 4 + rng.Intn(2); k > 0; k-- {
			v[rng.Intn(700)] = true
		}
		vs[i] = v.Pack()
	}
	b.ResetTimer()
	var sum float64
	for i := 0; i < b.N; i++ {
		for j := 1; j < len(vs); j++ {
			sum += Cosine(vs[j-1], vs[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(vs)-1)), "ns/pair")
	if sum < 0 {
		b.Fatal(sum)
	}
}
