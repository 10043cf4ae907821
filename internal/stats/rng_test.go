package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child must not replay the parent's stream.
	p := NewRNG(7)
	p.Uint64() // parent consumed one value for the split
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child replays parent stream at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(6)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v, want ~0.3", frac)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(8)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestGaussianShift(t *testing.T) {
	r := NewRNG(9)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Gaussian(10, 2)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.1 {
		t.Fatalf("Gaussian(10,2) mean = %v", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(10)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatalf("Exp produced negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermIsShuffled(t *testing.T) {
	r := NewRNG(12)
	identity := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		p := r.Perm(10)
		id := true
		for j, v := range p {
			if v != j {
				id = false
				break
			}
		}
		if id {
			identity++
		}
	}
	if identity > 2 {
		t.Fatalf("identity permutation appeared %d/%d times", identity, trials)
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(13)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 45 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	r := NewRNG(14)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick([]float64{1, 2, 1})]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("middle weight picked %v, want ~0.5", frac)
	}
}

func TestPickZeroWeightNeverChosen(t *testing.T) {
	r := NewRNG(15)
	for i := 0; i < 10000; i++ {
		if r.Pick([]float64{1, 0, 1}) == 1 {
			t.Fatal("zero-weight index chosen")
		}
	}
}

func TestPickPanics(t *testing.T) {
	for name, ws := range map[string][]float64{
		"all-zero": {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%s) did not panic", name)
				}
			}()
			NewRNG(1).Pick(ws)
		}()
	}
}
