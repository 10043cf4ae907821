package similarity

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestAttrExactPolicy(t *testing.T) {
	p := ExactAttrPolicy()
	a := model.Attributes{"country": model.Str("jp"), "age": model.Num(30)}
	b := model.Attributes{"country": model.Str("jp"), "age": model.Num(30)}
	if got := p.Similarity(a, b); got != 1 {
		t.Errorf("identical sets = %v, want 1", got)
	}
	b["age"] = model.Num(31)
	if got := p.Similarity(a, b); got != 0.5 {
		t.Errorf("one mismatched field = %v, want 0.5", got)
	}
}

func TestAttrTolerantPolicy(t *testing.T) {
	p := TolerantAttrPolicy(0.1)
	a := model.Attributes{"ratio": model.Num(0.90)}
	cases := []struct {
		val  float64
		want float64
	}{
		{0.90, 1},   // exact
		{0.95, 1},   // within tolerance
		{1.00, 1},   // at tolerance boundary
		{0.75, 0.5}, // halfway into the decay band (d=0.15)
		{0.70, 0},   // at 2*tolerance
		{0.50, 0},   // far out
	}
	for _, c := range cases {
		b := model.Attributes{"ratio": model.Num(c.val)}
		if got := p.Similarity(a, b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tolerance sim at %v = %v, want %v", c.val, got, c.want)
		}
	}
}

func TestAttrFieldToleranceOverride(t *testing.T) {
	p := AttrPolicy{NumTolerance: 0.01, FieldTolerance: map[string]float64{"loose": 10}}
	a := model.Attributes{"loose": model.Num(0), "tight": model.Num(0)}
	b := model.Attributes{"loose": model.Num(5), "tight": model.Num(5)}
	// loose matches (tolerance 10), tight does not (tolerance 0.01).
	if got := p.Similarity(a, b); got != 0.5 {
		t.Errorf("override sim = %v, want 0.5", got)
	}
}

func TestAttrMissingFields(t *testing.T) {
	p := ExactAttrPolicy()
	a := model.Attributes{"x": model.Num(1), "y": model.Num(2)}
	b := model.Attributes{"x": model.Num(1)}
	if got := p.Similarity(a, b); got != 0.5 {
		t.Errorf("missing field = %v, want 0.5", got)
	}
	p.MissingPenalty = 1
	if got := p.Similarity(a, b); got != 1 {
		t.Errorf("forgiving missing = %v, want 1", got)
	}
}

func TestAttrIgnoreFields(t *testing.T) {
	p := AttrPolicy{IgnoreFields: map[string]bool{"internal_id": true}}
	a := model.Attributes{"internal_id": model.Str("a"), "country": model.Str("jp")}
	b := model.Attributes{"internal_id": model.Str("b"), "country": model.Str("jp")}
	if got := p.Similarity(a, b); got != 1 {
		t.Errorf("ignored field still compared: %v", got)
	}
	// A set containing only ignored fields is vacuously identical.
	onlyIgnored := model.Attributes{"internal_id": model.Str("a")}
	if got := p.Similarity(onlyIgnored, model.Attributes{}); got != 1 {
		t.Errorf("only-ignored similarity = %v, want 1", got)
	}
}

func TestAttrKindMismatch(t *testing.T) {
	p := ExactAttrPolicy()
	a := model.Attributes{"v": model.Num(1)}
	b := model.Attributes{"v": model.Str("1")}
	if got := p.Similarity(a, b); got != 0 {
		t.Errorf("kind mismatch = %v, want 0", got)
	}
}

func TestAttrEmptySets(t *testing.T) {
	p := ExactAttrPolicy()
	if got := p.Similarity(nil, nil); got != 1 {
		t.Errorf("two empty sets = %v, want 1", got)
	}
	if got := p.Similarity(model.Attributes{"x": model.Num(1)}, nil); got != 0 {
		t.Errorf("empty vs non-empty = %v, want 0", got)
	}
}

func TestAttrSimilarityProperties(t *testing.T) {
	p := TolerantAttrPolicy(0.5)
	f := func(keys []string, nums []float64) bool {
		a := make(model.Attributes)
		b := make(model.Attributes)
		for i, k := range keys {
			if i >= len(nums) {
				break
			}
			v := nums[i]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			a[k] = model.Num(v)
			if i%2 == 0 {
				b[k] = model.Num(v)
			}
		}
		ab, ba := p.Similarity(a, b), p.Similarity(b, a)
		if math.Abs(ab-ba) > 1e-12 {
			return false
		}
		if ab < 0 || ab > 1 {
			return false
		}
		return p.Similarity(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ExactAttrPolicy demands perfect equality on every shared field and
// penalises asymmetric fields fully — the strict end of the paper's
// similarity spectrum.
func ExactAttrPolicy() AttrPolicy { return AttrPolicy{} }
