package pay

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/similarity"
)

func payTask() *model.Task {
	return &model.Task{ID: "t1", Requester: "r1", Skills: model.NewSkillVector(1), Reward: 2}
}

func contrib(id string, worker string, quality float64, accepted bool, text string) *model.Contribution {
	return &model.Contribution{
		ID: model.ContributionID(id), Task: "t1", Worker: model.WorkerID(worker),
		Quality: quality, Accepted: accepted, Text: text,
	}
}

func TestFixedReward(t *testing.T) {
	cs := []*model.Contribution{
		contrib("c1", "w1", 0.9, true, "a"),
		contrib("c2", "w2", 0.9, false, "a"),
	}
	pays := FixedReward{}.Pay(payTask(), cs)
	if pays[0] != 2 || pays[1] != 0 {
		t.Fatalf("pays = %v", pays)
	}
}

func TestQualityBased(t *testing.T) {
	q := QualityBased{Floor: 0.2, MinFraction: 0.25}
	cs := []*model.Contribution{
		contrib("c1", "w1", 1.0, true, "a"),  // full reward
		contrib("c2", "w2", 0.2, true, "a"),  // floor -> min fraction
		contrib("c3", "w3", 0.1, true, "a"),  // below floor -> 0
		contrib("c4", "w4", 0.6, true, "a"),  // interpolated
		contrib("c5", "w5", 1.0, false, "a"), // rejected -> 0
	}
	pays := q.Pay(payTask(), cs)
	if pays[0] != 2 {
		t.Errorf("full quality pay = %v, want 2", pays[0])
	}
	if pays[1] != 0.5 {
		t.Errorf("floor pay = %v, want 0.5 (25%% of 2)", pays[1])
	}
	if pays[2] != 0 || pays[4] != 0 {
		t.Errorf("cutoff pays = %v, %v, want 0", pays[2], pays[4])
	}
	want := 2 * (0.25 + 0.75*(0.6-0.2)/0.8)
	if math.Abs(pays[3]-want) > 1e-9 {
		t.Errorf("interpolated pay = %v, want %v", pays[3], want)
	}
}

func TestQualityBasedDefaults(t *testing.T) {
	pays := QualityBased{}.Pay(payTask(), []*model.Contribution{
		contrib("c1", "w1", 1.0, true, "a"),
	})
	if pays[0] != 2 {
		t.Fatalf("default full pay = %v", pays[0])
	}
}

func TestSimilarityFairEqualisesClusters(t *testing.T) {
	// Two identical texts with different qualities: the quality-based base
	// pays differently, the fair scheme must equalise them.
	same := "the quick brown fox jumps over the lazy dog in the morning light"
	cs := []*model.Contribution{
		contrib("c1", "w1", 1.0, true, same),
		contrib("c2", "w2", 0.5, true, same),
		contrib("c3", "w3", 0.9, true, "completely different answer about databases and indexing strategies"),
	}
	pays := SimilarityFair{}.Pay(payTask(), cs)
	if pays[0] != pays[1] {
		t.Fatalf("similar contributions paid differently: %v vs %v", pays[0], pays[1])
	}
	if pays[2] == pays[0] {
		t.Fatal("dissimilar contribution was pulled into the cluster")
	}
	// The cluster pay is the mean of the base payments.
	base := (QualityBased{}).Pay(payTask(), cs)
	wantMean := (base[0] + base[1]) / 2
	if math.Abs(pays[0]-wantMean) > 1e-9 {
		t.Fatalf("cluster pay = %v, want mean %v", pays[0], wantMean)
	}
}

func TestSimilarityFairRemediesWrongfulRejection(t *testing.T) {
	// A rejected contribution identical to an accepted one gets the
	// cluster's (positive) mean pay — the §3.1.1 wrongful-rejection remedy.
	same := "survey answer agreeing strongly with the first three statements"
	cs := []*model.Contribution{
		contrib("c1", "w1", 0.9, true, same),
		contrib("c2", "w2", 0.9, false, same),
	}
	pays := SimilarityFair{Base: FixedReward{}}.Pay(payTask(), cs)
	if pays[0] != pays[1] {
		t.Fatalf("pays = %v, want equal", pays)
	}
	if pays[1] != 1 { // mean of (2, 0)
		t.Fatalf("remedied pay = %v, want 1", pays[1])
	}
}

func TestSimilarityFairTransitiveClustering(t *testing.T) {
	// a~b and b~c with a and c less similar: single-link must still place
	// all three in one cluster.
	a := "alpha beta gamma delta epsilon zeta eta theta"
	b := "alpha beta gamma delta epsilon zeta eta iota"
	c := "alpha beta gamma delta epsilon zeta kappa iota"
	cs := []*model.Contribution{
		contrib("c1", "w1", 1.0, true, a),
		contrib("c2", "w2", 0.8, true, b),
		contrib("c3", "w3", 0.6, true, c),
	}
	pays := SimilarityFair{Threshold: 0.75}.Pay(payTask(), cs)
	if pays[0] != pays[1] || pays[1] != pays[2] {
		t.Fatalf("transitive cluster not equalised: %v", pays)
	}
}

func TestSimilarityFairEmpty(t *testing.T) {
	if got := (SimilarityFair{}).Pay(payTask(), nil); len(got) != 0 {
		t.Fatalf("empty pay = %v", got)
	}
}

func TestSchemeConservationProperty(t *testing.T) {
	// SimilarityFair redistributes but never changes the total paid.
	f := func(seed int64) bool {
		n := int(seed%7) + 2
		if n < 0 {
			n = 2
		}
		var cs []*model.Contribution
		for i := 0; i < n; i++ {
			text := "common answer core"
			if i%2 == 0 {
				text = "a completely distinct response body"
			}
			cs = append(cs, contrib(
				fmt.Sprintf("c%d", i), fmt.Sprintf("w%d", i),
				float64((int(seed)+i*13)%100)/100.0,
				(int(seed)+i)%3 != 0, text))
		}
		base := (QualityBased{}).Pay(payTask(), cs)
		fair := (SimilarityFair{}).Pay(payTask(), cs)
		var sumBase, sumFair float64
		for i := range base {
			sumBase += base[i]
			sumFair += fair[i]
		}
		return math.Abs(sumBase-sumFair) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"fixed", "quality-based", "similarity-fair"} {
		s, ok := SchemeByName(name)
		if !ok || s.Name() != name {
			t.Errorf("scheme %q not resolvable", name)
		}
	}
	if _, ok := SchemeByName("nope"); ok {
		t.Error("unknown scheme resolved")
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	if err := l.Record(Payment{Worker: "w1", Amount: 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(Payment{Worker: "w1", Amount: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Record(Payment{Worker: "w2", Amount: 1}); err != nil {
		t.Fatal(err)
	}
	if l.WorkerIncome("w1") != 5 || l.WorkerIncome("w2") != 1 {
		t.Fatalf("incomes = %v, %v", l.WorkerIncome("w1"), l.WorkerIncome("w2"))
	}
	if l.Total() != 6 {
		t.Fatalf("total = %v", l.Total())
	}
	incomes := l.Incomes()
	if len(incomes) != 2 || incomes[0] != 5 || incomes[1] != 1 {
		t.Fatalf("incomes slice = %v", incomes)
	}
	if len(l.Payments()) != 3 {
		t.Fatalf("payments = %d", len(l.Payments()))
	}
}

func TestLedgerRejectsNegative(t *testing.T) {
	l := NewLedger()
	if err := l.Record(Payment{Worker: "w1", Amount: -1}); err == nil {
		t.Fatal("negative payment accepted")
	}
}

func TestLedgerConservationProperty(t *testing.T) {
	// Total always equals the sum of recorded amounts.
	f := func(amounts []float64) bool {
		l := NewLedger()
		var want float64
		for i, a := range amounts {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				continue
			}
			a = math.Mod(math.Abs(a), 1e6)
			if err := l.Record(Payment{Worker: model.WorkerID(fmt.Sprintf("w%d", i%5)), Amount: a}); err != nil {
				return false
			}
			want += a
		}
		return math.Abs(l.Total()-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBonusContract(t *testing.T) {
	l := NewLedger()
	b := NewBonusContract("r1", "w1", 3, 5)
	if b.Due() {
		t.Fatal("new contract already due")
	}
	b.Complete()
	b.Complete()
	if paid, err := b.Settle(l, true, 0); err != nil || paid {
		t.Fatalf("premature settle = %v, %v", paid, err)
	}
	b.Complete()
	if !b.Due() {
		t.Fatal("contract not due after series")
	}
	paid, err := b.Settle(l, true, 0)
	if err != nil || !paid {
		t.Fatalf("settle = %v, %v", paid, err)
	}
	if l.WorkerIncome("w1") != 5 {
		t.Fatalf("bonus not paid: %v", l.WorkerIncome("w1"))
	}
	// Double settle is a no-op.
	if paid, _ := b.Settle(l, true, 0); paid {
		t.Fatal("double settle paid twice")
	}
	if !b.Paid() {
		t.Fatal("Paid() false after payment")
	}
}

func TestBonusContractRenege(t *testing.T) {
	l := NewLedger()
	b := NewBonusContract("r1", "w1", 1, 5)
	b.Complete()
	paid, err := b.Settle(l, false, 0)
	if err != nil || paid {
		t.Fatalf("renege settle = %v, %v", paid, err)
	}
	if !b.Reneged() {
		t.Fatal("contract not marked reneged")
	}
	if l.Total() != 0 {
		t.Fatal("reneged contract paid")
	}
	// Once reneged, even an honour attempt pays nothing (the harm is done).
	if paid, _ := b.Settle(l, true, 0); paid {
		t.Fatal("reneged contract later paid")
	}
}

func TestBonusContractPanicsOnBadParams(t *testing.T) {
	for name, build := range map[string]func(){
		"zero-series":     func() { NewBonusContract("r", "w", 0, 1) },
		"negative-amount": func() { NewBonusContract("r", "w", 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// Negative fields are the explicit-zero sentinel; plain zero still selects
// the documented default.
func TestQualityBasedExplicitZeroSentinel(t *testing.T) {
	task := &model.Task{ID: "t1", Requester: "r1", Reward: 1.0}
	low := &model.Contribution{ID: "c1", Task: "t1", Worker: "w1", Quality: 0.1, Accepted: true}
	// Default floor 0.2: quality 0.1 earns nothing.
	if got := (QualityBased{}).Pay(task, []*model.Contribution{low})[0]; got != 0 {
		t.Fatalf("default floor paid %v", got)
	}
	// Explicit-zero floor: every accepted contribution earns.
	got := QualityBased{Floor: -1}.Pay(task, []*model.Contribution{low})[0]
	if got <= 0 {
		t.Fatalf("explicit-zero floor paid %v", got)
	}
	// Explicit-zero MinFraction: interpolation starts at nothing, so
	// quality 1 still pays the full reward and floor-quality pays ~0.
	qb := QualityBased{MinFraction: -1}
	perfect := &model.Contribution{ID: "c2", Task: "t1", Worker: "w2", Quality: 1, Accepted: true}
	if got := qb.Pay(task, []*model.Contribution{perfect})[0]; got != 1.0 {
		t.Fatalf("perfect quality paid %v, want full reward", got)
	}
}

// SimilarityFair must produce identical payments through the parallel
// pair-scoring kernel and through an injected scorer (the hook the
// simulator wires to the audit engine's Engine.PairScores).
func TestSimilarityFairInjectedScorerMatches(t *testing.T) {
	task := &model.Task{ID: "t1", Requester: "r1", Reward: 2.0}
	contribs := []*model.Contribution{
		{ID: "c1", Task: "t1", Worker: "w1", Text: "the quick brown fox jumps", Quality: 0.9, Accepted: true},
		{ID: "c2", Task: "t1", Worker: "w2", Text: "the quick brown fox jumps", Quality: 0.4, Accepted: true},
		{ID: "c3", Task: "t1", Worker: "w3", Text: "entirely unrelated words here", Quality: 0.8, Accepted: true},
	}
	def := SimilarityFair{}.Pay(task, contribs)
	calls := 0
	injected := SimilarityFair{PairScores: func(cs []*model.Contribution) []float64 {
		calls++
		return similarity.ContributionPairScores(cs)
	}}.Pay(task, contribs)
	if calls != 1 {
		t.Fatalf("injected scorer called %d times", calls)
	}
	for i := range def {
		if def[i] != injected[i] {
			t.Fatalf("payment %d: %v (default) vs %v (injected)", i, def[i], injected[i])
		}
	}
	// The similar pair (c1, c2) must be equalised; the dissimilar c3 not.
	if def[0] != def[1] {
		t.Fatalf("similar contributions paid %v vs %v", def[0], def[1])
	}
	if def[2] == def[0] {
		t.Fatal("dissimilar contribution was dragged into the cluster")
	}
}
