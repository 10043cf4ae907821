package retention

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/stats"
)

func newModel(transparency float64) *Model {
	return NewModel(Params{}, transparency, stats.NewRNG(1))
}

func TestJoinAndBaseline(t *testing.T) {
	m := newModel(0)
	m.Join("w1")
	if got := m.Satisfaction("w1"); got != 0.7 {
		t.Fatalf("baseline = %v", got)
	}
	if !m.Active("w1") {
		t.Fatal("joined worker inactive")
	}
	if m.Active("ghost") {
		t.Fatal("unknown worker active")
	}
	// Double join must not reset satisfaction.
	m.OnPayment("w1")
	s := m.Satisfaction("w1")
	m.Join("w1")
	if m.Satisfaction("w1") != s {
		t.Fatal("re-join reset satisfaction")
	}
}

func TestPaymentBoosts(t *testing.T) {
	m := newModel(0)
	m.Join("w1")
	m.OnPayment("w1")
	if got := m.Satisfaction("w1"); got != 0.72 {
		t.Fatalf("after payment = %v", got)
	}
}

func TestSatisfactionClampedAtOne(t *testing.T) {
	m := newModel(0)
	m.Join("w1")
	for i := 0; i < 100; i++ {
		m.OnPayment("w1")
	}
	if got := m.Satisfaction("w1"); got != 1 {
		t.Fatalf("satisfaction = %v, want clamped 1", got)
	}
}

func TestRejectionsChurnOpaqueWorkers(t *testing.T) {
	m := newModel(0)
	m.Join("w1")
	churned := false
	for i := 0; i < 10 && !churned; i++ {
		churned = m.OnRejection("w1", false)
	}
	if !churned {
		t.Fatal("repeated opaque rejections never churned the worker")
	}
	if m.Active("w1") {
		t.Fatal("churned worker still active")
	}
	if m.RetentionRate() != 0 {
		t.Fatalf("retention = %v", m.RetentionRate())
	}
}

func TestTransparencyDampensShocks(t *testing.T) {
	opaque := newModel(0)
	transparent := newModel(1)
	opaque.Join("w1")
	transparent.Join("w1")
	opaque.OnRejection("w1", false)
	transparent.OnRejection("w1", false)
	if transparent.Satisfaction("w1") <= opaque.Satisfaction("w1") {
		t.Fatalf("transparency did not dampen: %v vs %v",
			transparent.Satisfaction("w1"), opaque.Satisfaction("w1"))
	}
}

func TestExplainedRejectionHurtsLess(t *testing.T) {
	a, b := newModel(0), newModel(0)
	a.Join("w1")
	b.Join("w1")
	a.OnRejection("w1", true)
	b.OnRejection("w1", false)
	if a.Satisfaction("w1") <= b.Satisfaction("w1") {
		t.Fatal("explained rejection did not hurt less")
	}
}

func TestChurnedWorkerIgnoresFurtherEvents(t *testing.T) {
	m := newModel(0)
	m.Join("w1")
	for i := 0; i < 10; i++ {
		m.OnRenege("w1")
	}
	s := m.Satisfaction("w1")
	m.OnPayment("w1")
	if m.Satisfaction("w1") != s {
		t.Fatal("churned worker satisfaction moved")
	}
	if m.Active("w1") {
		t.Fatal("payment revived churned worker")
	}
}

func TestEffectiveQualityCoupling(t *testing.T) {
	m := newModel(0)
	m.Join("sad")
	m.Join("happy")
	for i := 0; i < 2; i++ {
		m.OnRejection("sad", false)
	}
	for i := 0; i < 10; i++ {
		m.OnPayment("happy")
	}
	sadQ := m.EffectiveQuality("sad", 0.8)
	happyQ := m.EffectiveQuality("happy", 0.8)
	if sadQ >= happyQ {
		t.Fatalf("quality coupling inverted: sad %v vs happy %v", sadQ, happyQ)
	}
	if sadQ < 0 || happyQ > 1 {
		t.Fatalf("quality out of range: %v, %v", sadQ, happyQ)
	}
}

func TestEndRoundOpacityDrag(t *testing.T) {
	opaque := newModel(0)
	transparent := newModel(1)
	opaque.Join("w1")
	transparent.Join("w1")
	for i := 0; i < 5; i++ {
		opaque.EndRound()
		transparent.EndRound()
	}
	if transparent.Satisfaction("w1") <= opaque.Satisfaction("w1") {
		t.Fatal("opacity drag missing")
	}
	if transparent.Satisfaction("w1") != 0.7 {
		t.Fatalf("fully transparent platform dragged: %v", transparent.Satisfaction("w1"))
	}
}

func TestEndRoundChurnsEventually(t *testing.T) {
	m := NewModel(Params{OpacityDrag: 0.2}, 0, stats.NewRNG(1))
	m.Join("w1")
	var churned []model.WorkerID
	for i := 0; i < 10 && len(churned) == 0; i++ {
		churned = m.EndRound()
	}
	if len(churned) != 1 || churned[0] != "w1" {
		t.Fatalf("churned = %v", churned)
	}
}

func TestEndRoundDeterministicOrder(t *testing.T) {
	run := func() []model.WorkerID {
		m := NewModel(Params{OpacityDrag: 0.5}, 0, stats.NewRNG(1))
		for i := 0; i < 20; i++ {
			m.Join(model.WorkerID(fmt.Sprintf("w%02d", i)))
		}
		return m.EndRound()
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic churn order:\n%v\n%v", a, b)
	}
}

func TestRetentionRateEmpty(t *testing.T) {
	if newModel(0).RetentionRate() != 1 {
		t.Fatal("empty model retention should be 1")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Baseline != 0.7 || p.ChurnPoint != 0.3 || p.OpacityDrag != 0.015 {
		t.Fatalf("defaults = %+v", p)
	}
	// Explicit values survive.
	p = Params{Baseline: 0.5}.WithDefaults()
	if p.Baseline != 0.5 {
		t.Fatal("explicit baseline overwritten")
	}
}

func TestTransparencyScoreClamped(t *testing.T) {
	m := NewModel(Params{}, 5, stats.NewRNG(1)) // out-of-range score
	m.Join("w1")
	m.OnRejection("w1", false)
	// Clamped to 1: relief = 0.6, shock = 0.15*0.4 = 0.06.
	want := 0.7 - 0.15*(1-0.6)
	if got := m.Satisfaction("w1"); math.Abs(got-want) > 1e-12 {
		t.Fatalf("satisfaction = %v, want %v", got, want)
	}
}

// Negative params are the explicit-zero sentinel; plain zero still selects
// the documented default.
func TestParamsExplicitZeroSentinel(t *testing.T) {
	def := Params{}.WithDefaults()
	if def.OpacityDrag != 0.015 || def.RejectionShock != 0.15 {
		t.Fatalf("defaults changed: %+v", def)
	}
	p := Params{OpacityDrag: -1, RejectionShock: -1, ChurnPoint: -1}.WithDefaults()
	if p.OpacityDrag != 0 || p.RejectionShock != 0 || p.ChurnPoint != 0 {
		t.Fatalf("explicit zeros not honoured: %+v", p)
	}
	// Behavioural check: zero opacity drag on a fully opaque platform must
	// leave satisfaction untouched at end of round.
	m := NewModel(Params{OpacityDrag: -1}, 0, stats.NewRNG(1))
	m.Join("w1")
	before := m.Satisfaction("w1")
	if churned := m.EndRound(); len(churned) != 0 {
		t.Fatalf("churned = %v", churned)
	}
	if m.Satisfaction("w1") != before {
		t.Fatalf("satisfaction moved from %v to %v with zero drag", before, m.Satisfaction("w1"))
	}
	// Zero rejection shock: rejections are free.
	m2 := NewModel(Params{RejectionShock: -1}, 0, stats.NewRNG(1))
	m2.Join("w1")
	before = m2.Satisfaction("w1")
	m2.OnRejection("w1", false)
	if m2.Satisfaction("w1") != before {
		t.Fatal("zero rejection shock still moved satisfaction")
	}
}
