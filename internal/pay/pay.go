// Package pay implements the worker-compensation strategies of §3.1.1 and
// the payment ledger audited by Axiom 3 ("workers with similar
// contributions to the same task should receive the same reward").
//
// Three families are provided: fixed per-task rewards (the AMT default),
// quality-based pricing after Wang, Ipeirotis & Provost (2013), and a
// similarity-fair scheme that equalises pay inside clusters of mutually
// similar contributions — the enforcement mechanism for Axiom 3. A
// BonusContract type models the promised-bonus scenario the paper lists as
// a discrimination source.
package pay

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
	"repro/internal/similarity"
)

// Scheme computes the payment for each contribution to a single task.
type Scheme interface {
	// Name identifies the scheme in reports and benchmarks.
	Name() string
	// Pay returns the payment per contribution (parallel to contribs).
	// All contributions belong to task t.
	Pay(t *model.Task, contribs []*model.Contribution) []float64
}

// FixedReward pays the task reward to every accepted contribution and
// nothing to rejected ones — the AMT baseline where wage discrimination
// manifests as wrongful rejection.
type FixedReward struct{}

// Name implements Scheme.
func (FixedReward) Name() string { return "fixed" }

// Pay implements Scheme.
func (FixedReward) Pay(t *model.Task, contribs []*model.Contribution) []float64 {
	out := make([]float64, len(contribs))
	for i, c := range contribs {
		if c.Accepted {
			out[i] = t.Reward
		}
	}
	return out
}

// QualityBased scales the task reward by contribution quality, following
// the quality-based reward scheme of Wang–Ipeirotis–Provost the paper cites
// ("compensation that depends on the quality of a worker's contribution").
// Quality below Floor earns nothing (the spam cutoff); above it the payment
// interpolates linearly from MinFraction*Reward to Reward.
//
// Zero fields select the documented defaults; an explicit zero is expressed
// with a negative value (Floor: -1 pays every accepted contribution,
// MinFraction: -1 starts the interpolation at nothing).
type QualityBased struct {
	// Floor is the minimum quality that earns any payment (default 0.2).
	Floor float64
	// MinFraction is the fraction of the reward paid at quality == Floor
	// (default 0.25). Quality 1 always pays the full reward.
	MinFraction float64
}

// Name implements Scheme.
func (QualityBased) Name() string { return "quality-based" }

// orDefault maps 0 to the documented default and any negative value to an
// explicit 0.
func orDefault(v, def float64) float64 {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// Pay implements Scheme.
func (q QualityBased) Pay(t *model.Task, contribs []*model.Contribution) []float64 {
	floor := orDefault(q.Floor, 0.2)
	minFrac := orDefault(q.MinFraction, 0.25)
	out := make([]float64, len(contribs))
	for i, c := range contribs {
		if !c.Accepted || c.Quality < floor {
			continue
		}
		frac := minFrac
		if c.Quality > floor {
			frac = minFrac + (1-minFrac)*(c.Quality-floor)/(1-floor)
		}
		out[i] = t.Reward * frac
	}
	return out
}

// SimilarityFair enforces Axiom 3 directly: contributions to the same task
// are clustered by pairwise similarity (single-link over the
// ContributionSimilarity measure at Threshold), and every member of a
// cluster is paid the same amount — the cluster's mean base payment under
// the wrapped Base scheme. Rejected contributions whose cluster contains an
// accepted one are paid too (their work was demonstrably equivalent), which
// is precisely the wrongful-rejection remedy of §3.1.1.
type SimilarityFair struct {
	// Base computes the pre-equalisation payments (default QualityBased{}).
	Base Scheme
	// Threshold is the similarity above which two contributions are "the
	// same work" (default 0.8; a negative value means 0 — every pair
	// clusters together).
	Threshold float64
	// PairScores overrides the pairwise similarity kernel (default
	// similarity.ContributionPairScores, which builds each text profile once
	// and scores the pairs in parallel). The simulator injects the audit
	// engine's Engine.PairScores here so payment equalisation scores the
	// same, possibly LSH-pruned, pair set as the audit. Results must be
	// indexed in similarity.PairAt order.
	PairScores func([]*model.Contribution) []float64
}

// Name implements Scheme.
func (s SimilarityFair) Name() string { return "similarity-fair" }

// Pay implements Scheme.
func (s SimilarityFair) Pay(t *model.Task, contribs []*model.Contribution) []float64 {
	base := s.Base
	if base == nil {
		base = QualityBased{}
	}
	thr := orDefault(s.Threshold, 0.8)
	pays := base.Pay(t, contribs)
	n := len(contribs)
	if n == 0 {
		return pays
	}

	// Single-link clustering via union-find over similar pairs. Pair
	// similarities come from the shared parallel kernel instead of a serial
	// nested loop — profile construction dominates on text-heavy tasks.
	scorer := s.PairScores
	if scorer == nil {
		scorer = similarity.ContributionPairScores
	}
	sims := scorer(contribs)

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for k, sim := range sims {
		if sim >= thr {
			i, j := similarity.PairAt(n, k)
			union(i, j)
		}
	}

	// Equalise each cluster at its mean payment.
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for i := range contribs {
		r := find(i)
		sums[r] += pays[i]
		counts[r]++
	}
	out := make([]float64, n)
	for i := range contribs {
		r := find(i)
		out[i] = sums[r] / float64(counts[r])
	}
	return out
}

// Schemes returns one instance of every scheme, in report order.
func Schemes() []Scheme {
	return []Scheme{FixedReward{}, QualityBased{}, SimilarityFair{}}
}

// SchemeByName resolves a scheme from its Name; false for unknown names.
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range Schemes() {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

// Ledger records every payment and bonus, providing the per-worker income
// series the Gini/disparity metrics and Axiom 3 checker consume. Safe for
// concurrent use.
type Ledger struct {
	mu       sync.RWMutex
	payments []Payment
	byWorker map[model.WorkerID]float64
}

// Payment is one ledger entry.
type Payment struct {
	Worker       model.WorkerID
	Task         model.TaskID
	Contribution model.ContributionID
	Amount       float64
	// Bonus marks bonus payouts (vs base contribution payments).
	Bonus bool
	Time  int64
}

// ErrNegativePayment rejects negative ledger entries.
var ErrNegativePayment = errors.New("pay: negative payment")

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byWorker: make(map[model.WorkerID]float64)}
}

// Record appends a payment.
func (l *Ledger) Record(p Payment) error {
	if p.Amount < 0 {
		return fmt.Errorf("%w: %v to %s", ErrNegativePayment, p.Amount, p.Worker)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.payments = append(l.payments, p)
	l.byWorker[p.Worker] += p.Amount
	return nil
}

// Total returns the sum of all payments. Summation runs in record order so
// the floating-point result is deterministic across runs.
func (l *Ledger) Total() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var t float64
	for _, p := range l.payments {
		t += p.Amount
	}
	return t
}

// WorkerIncome returns the total paid to a worker.
func (l *Ledger) WorkerIncome(id model.WorkerID) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.byWorker[id]
}

// Incomes returns every worker's total income, sorted by worker id.
func (l *Ledger) Incomes() []float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	ids := make([]model.WorkerID, 0, len(l.byWorker))
	for id := range l.byWorker {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = l.byWorker[id]
	}
	return out
}

// Payments returns a copy of all entries in record order.
func (l *Ledger) Payments() []Payment {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Payment(nil), l.payments...)
}

// BonusContract models the §3.1.1 scenario where "a requester promises to
// provide a bonus when a worker completes a series of tasks but does not do
// so in the end". Completing Series tasks entitles the worker to Amount.
type BonusContract struct {
	Requester model.RequesterID
	Worker    model.WorkerID
	// Series is the number of task completions required.
	Series int
	// Amount is the promised bonus.
	Amount float64

	completed int
	paid      bool
	reneged   bool
}

// NewBonusContract returns a contract; series must be >= 1 and amount >= 0
// or it panics (contracts are constructed by test/simulation code with
// literal parameters).
func NewBonusContract(r model.RequesterID, w model.WorkerID, series int, amount float64) *BonusContract {
	if series < 1 || amount < 0 {
		panic("pay: invalid bonus contract")
	}
	return &BonusContract{Requester: r, Worker: w, Series: series, Amount: amount}
}

// Complete records one completed task in the series.
func (b *BonusContract) Complete() { b.completed++ }

// Due reports whether the worker has earned the bonus.
func (b *BonusContract) Due() bool { return b.completed >= b.Series }

// Settle pays the bonus into the ledger if due and not already handled.
// honour=false models the reneging requester: the contract is marked
// reneged and nothing is paid. It returns whether a payment was made.
func (b *BonusContract) Settle(l *Ledger, honour bool, now int64) (bool, error) {
	if !b.Due() || b.paid || b.reneged {
		return false, nil
	}
	if !honour {
		b.reneged = true
		return false, nil
	}
	if err := l.Record(Payment{Worker: b.Worker, Amount: b.Amount, Bonus: true, Time: now}); err != nil {
		return false, err
	}
	b.paid = true
	return true, nil
}

// Reneged reports whether the contract was dishonoured.
func (b *BonusContract) Reneged() bool { return b.reneged }

// Paid reports whether the bonus was paid.
func (b *BonusContract) Paid() bool { return b.paid }
