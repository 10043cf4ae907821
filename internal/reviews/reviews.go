// Package reviews implements worker-authored requester reviews — the
// Turkopticon mechanism (Irani & Silberman 2013) that §2.2 and §3.1.2 cite
// as the workaround workers built for requester opacity: "if a worker is
// provided means to post a review of a requester, this may encourage
// requesters to be more transparent."
//
// A Board collects per-requester ratings on the four Turkopticon axes
// (pay, fairness, speed, communicativity), aggregates them, and exposes
// the aggregate that a compliant platform binds to the
// platform.requester_rating disclosure field. Reviews are idempotent per
// (worker, requester): workers can revise their review, not stack votes.
package reviews

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/model"
)

// Axis names a rating dimension (the Turkopticon quartet).
type Axis uint8

// Rating axes.
const (
	AxisPay      Axis = iota // how well the requester pays
	AxisFairness             // how fairly work is accepted/rejected
	AxisSpeed                // how quickly work is approved and paid
	AxisComm                 // how communicative the requester is
	numAxes
)

// String renders the axis name.
func (a Axis) String() string {
	switch a {
	case AxisPay:
		return "pay"
	case AxisFairness:
		return "fairness"
	case AxisSpeed:
		return "speed"
	case AxisComm:
		return "communicativity"
	default:
		return fmt.Sprintf("axis(%d)", uint8(a))
	}
}

// Review is one worker's assessment of one requester. Scores are on the
// Turkopticon 1–5 scale.
type Review struct {
	Worker    model.WorkerID
	Requester model.RequesterID
	// Scores indexes by Axis; zero entries mean "not rated on this axis".
	Scores [4]int
	// Comment is optional free text.
	Comment string
}

// Validation errors.
var (
	ErrBadScore = errors.New("reviews: score outside 1..5")
	ErrEmptyIDs = errors.New("reviews: empty worker or requester id")
)

// Validate checks the review's structure.
func (r *Review) Validate() error {
	if r.Worker == "" || r.Requester == "" {
		return ErrEmptyIDs
	}
	rated := false
	for _, s := range r.Scores {
		if s < 0 || s > 5 {
			return fmt.Errorf("%w: %d", ErrBadScore, s)
		}
		if s != 0 {
			rated = true
		}
	}
	if !rated {
		return fmt.Errorf("%w: review rates no axis", ErrBadScore)
	}
	return nil
}

// Board stores and aggregates reviews. Safe for concurrent use.
type Board struct {
	mu      sync.RWMutex
	reviews map[model.RequesterID]map[model.WorkerID]Review
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{reviews: make(map[model.RequesterID]map[model.WorkerID]Review)}
}

// Post records a review, replacing the worker's previous review of the
// same requester if any.
func (b *Board) Post(r Review) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.reviews[r.Requester]
	if m == nil {
		m = make(map[model.WorkerID]Review)
		b.reviews[r.Requester] = m
	}
	m[r.Worker] = r
	return nil
}

// Aggregate is the averaged rating of one requester.
type Aggregate struct {
	Requester model.RequesterID
	Reviews   int
	// Mean indexes by Axis; axes nobody rated are 0.
	Mean [4]float64
}

// Overall returns the mean of the rated axes (0 if none).
func (a Aggregate) Overall() float64 {
	var sum float64
	n := 0
	for _, m := range a.Mean {
		if m > 0 {
			sum += m
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String renders the aggregate for reports.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s: %.2f overall from %d reviews (pay %.2f, fairness %.2f, speed %.2f, comm %.2f)",
		a.Requester, a.Overall(), a.Reviews,
		a.Mean[AxisPay], a.Mean[AxisFairness], a.Mean[AxisSpeed], a.Mean[AxisComm])
}

// Aggregate computes the averaged rating of a requester; the boolean is
// false when no reviews exist.
func (b *Board) Aggregate(id model.RequesterID) (Aggregate, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	m := b.reviews[id]
	if len(m) == 0 {
		return Aggregate{}, false
	}
	agg := Aggregate{Requester: id, Reviews: len(m)}
	var counts [4]int
	for _, r := range m {
		for axis, s := range r.Scores {
			if s > 0 {
				agg.Mean[axis] += float64(s)
				counts[axis]++
			}
		}
	}
	for axis := range agg.Mean {
		if counts[axis] > 0 {
			agg.Mean[axis] /= float64(counts[axis])
		}
	}
	return agg, true
}

// Rank returns all reviewed requesters sorted by descending overall rating
// — the browse-time ordering Turkopticon-equipped workers use.
func (b *Board) Rank() []Aggregate {
	b.mu.RLock()
	ids := make([]model.RequesterID, 0, len(b.reviews))
	for id := range b.reviews {
		ids = append(ids, id)
	}
	b.mu.RUnlock()
	out := make([]Aggregate, 0, len(ids))
	for _, id := range ids {
		if agg, ok := b.Aggregate(id); ok {
			out = append(out, agg)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oj := out[i].Overall(), out[j].Overall()
		if oi != oj {
			return oi > oj
		}
		return out[i].Requester < out[j].Requester
	})
	return out
}

// ReviewFromExperience synthesises a review from a worker's measurable
// experience with a requester: pay scales with the hourly wage relative to
// fairWage, fairness with the acceptance rate, speed with the payment
// delay relative to maxDelay. It is the bridge the simulator uses to turn
// trace facts into Turkopticon-style board content.
func ReviewFromExperience(worker model.WorkerID, requester model.RequesterID,
	hourlyWage, fairWage, acceptRate float64, paymentDelay, maxDelay float64) Review {
	score := func(frac float64) int {
		switch {
		case frac >= 1:
			return 5
		case frac >= 0.75:
			return 4
		case frac >= 0.5:
			return 3
		case frac >= 0.25:
			return 2
		default:
			return 1
		}
	}
	r := Review{Worker: worker, Requester: requester}
	if fairWage > 0 {
		r.Scores[AxisPay] = score(hourlyWage / fairWage)
	} else {
		r.Scores[AxisPay] = 3
	}
	r.Scores[AxisFairness] = score(acceptRate)
	if maxDelay > 0 {
		r.Scores[AxisSpeed] = score(1 - paymentDelay/maxDelay)
	} else {
		r.Scores[AxisSpeed] = 3
	}
	if r.Scores[AxisSpeed] < 1 {
		r.Scores[AxisSpeed] = 1
	}
	return r
}
