// Package retention models worker behaviour in response to fairness and
// transparency — the objective measures of §4.1 ("quantify measures such as
// contributions quality for fairness and worker retention for
// transparency").
//
// The model is a per-worker satisfaction process: satisfaction starts at a
// baseline and is moved by platform events (payments raise it; wrongful
// rejections, interruptions, and reneged bonuses lower it), while
// transparency damps the negative shocks — the mechanism the literature the
// paper cites reports (requester transparency increases engagement [16],
// workflow transparency increases contributions [13], feedback increases
// motivation [12]). Workers whose satisfaction falls below their churn
// point leave; engaged workers put more effort into contributions, which is
// how fairness/transparency feed back into contribution quality.
//
// The numeric constants are stated in one place (Params) and documented as
// modelling choices; the E6 experiment only relies on the directions, which
// are the paper's own hypotheses.
package retention

import (
	"repro/internal/model"
	"repro/internal/stats"
)

// Params sets the satisfaction dynamics. Zero values select documented
// defaults via WithDefaults; an explicit zero is expressed with any
// negative value (e.g. OpacityDrag: -1 means "no drag at all"), so a
// deliberate 0 is never silently upgraded to the default.
type Params struct {
	// Baseline is initial satisfaction in [0,1] (default 0.7).
	Baseline float64
	// ChurnPoint: a worker leaves when satisfaction < ChurnPoint
	// (default 0.3).
	ChurnPoint float64
	// PaymentBoost is the satisfaction gain per fair payment (default 0.02).
	PaymentBoost float64
	// RejectionShock is the satisfaction loss on an unexplained rejection
	// (default 0.15); with full transparency the loss is scaled by
	// (1 - TransparencyRelief * transparencyScore).
	RejectionShock float64
	// InterruptShock is the loss when in-progress work is cancelled
	// (default 0.2).
	InterruptShock float64
	// RenegeShock is the loss when a promised bonus is not paid
	// (default 0.25).
	RenegeShock float64
	// TransparencyRelief in [0,1] is how much a fully transparent platform
	// dampens negative shocks (default 0.6) — disclosed criteria make
	// rejections legible rather than arbitrary.
	TransparencyRelief float64
	// QualityCoupling is how strongly satisfaction modulates contribution
	// quality around its skill-determined base (default 0.3): effective
	// quality = base * (1 - QualityCoupling/2 + QualityCoupling*satisfaction).
	QualityCoupling float64
	// OpacityDrag is the per-round satisfaction decay on a fully opaque
	// platform (default 0.015), scaled by (1 - transparencyScore): the
	// standing frustration the paper's introduction attributes to opacity
	// ("a crowdsourcing platform that provides better transparency would
	// generate less frustration among workers and see better worker
	// retention"). Applied by EndRound.
	OpacityDrag float64
}

// WithDefaults fills zero fields with the documented defaults and maps
// negative fields (the explicit-zero sentinel) to 0.
func (p Params) WithDefaults() Params {
	p.Baseline = orDefault(p.Baseline, 0.7)
	p.ChurnPoint = orDefault(p.ChurnPoint, 0.3)
	p.PaymentBoost = orDefault(p.PaymentBoost, 0.02)
	p.RejectionShock = orDefault(p.RejectionShock, 0.15)
	p.InterruptShock = orDefault(p.InterruptShock, 0.2)
	p.RenegeShock = orDefault(p.RenegeShock, 0.25)
	p.TransparencyRelief = orDefault(p.TransparencyRelief, 0.6)
	p.QualityCoupling = orDefault(p.QualityCoupling, 0.3)
	p.OpacityDrag = orDefault(p.OpacityDrag, 0.015)
	return p
}

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

// Model tracks satisfaction for a worker population under a given
// transparency score.
type Model struct {
	params       Params
	transparency float64 // TransparencyScore of the platform policy, [0,1]
	satisfaction map[model.WorkerID]float64
	left         map[model.WorkerID]bool
	rng          *stats.RNG
}

// NewModel returns a model with the given parameters and platform
// transparency score in [0,1].
func NewModel(params Params, transparencyScore float64, rng *stats.RNG) *Model {
	if transparencyScore < 0 {
		transparencyScore = 0
	}
	if transparencyScore > 1 {
		transparencyScore = 1
	}
	return &Model{
		params:       params.WithDefaults(),
		transparency: transparencyScore,
		satisfaction: make(map[model.WorkerID]float64),
		left:         make(map[model.WorkerID]bool),
		rng:          rng,
	}
}

// Join registers a worker at baseline satisfaction.
func (m *Model) Join(id model.WorkerID) {
	if _, ok := m.satisfaction[id]; !ok {
		m.satisfaction[id] = m.params.Baseline
	}
}

// Satisfaction returns the worker's current satisfaction (0 if unknown).
func (m *Model) Satisfaction(id model.WorkerID) float64 { return m.satisfaction[id] }

// Active reports whether the worker is still on the platform.
func (m *Model) Active(id model.WorkerID) bool {
	_, joined := m.satisfaction[id]
	return joined && !m.left[id]
}

// relief scales a negative shock by the platform's transparency.
func (m *Model) relief(shock float64) float64 {
	return shock * (1 - m.params.TransparencyRelief*m.transparency)
}

// shift applies a satisfaction delta and returns true if the worker churned
// as a result.
func (m *Model) shift(id model.WorkerID, delta float64) bool {
	if m.left[id] {
		return false
	}
	s := m.satisfaction[id] + delta
	if s > 1 {
		s = 1
	}
	if s < 0 {
		s = 0
	}
	m.satisfaction[id] = s
	if s < m.params.ChurnPoint {
		m.left[id] = true
		return true
	}
	return false
}

// OnPayment records a payment to the worker; returns true if (impossibly
// for a boost) the worker churned.
func (m *Model) OnPayment(id model.WorkerID) bool {
	return m.shift(id, m.params.PaymentBoost)
}

// OnRejection records a rejection. explained marks rejections accompanied
// by disclosed rejection criteria (the requester-transparency case), which
// hurt less than opaque ones on top of the platform-level relief.
func (m *Model) OnRejection(id model.WorkerID, explained bool) bool {
	shock := m.relief(m.params.RejectionShock)
	if explained {
		shock /= 2
	}
	return m.shift(id, -shock)
}

// OnInterruption records cancelled in-progress work (the Axiom 5 injury).
func (m *Model) OnInterruption(id model.WorkerID) bool {
	return m.shift(id, -m.relief(m.params.InterruptShock))
}

// OnRenege records a dishonoured bonus promise.
func (m *Model) OnRenege(id model.WorkerID) bool {
	return m.shift(id, -m.relief(m.params.RenegeShock))
}

// EndRound applies the opacity drag to every active worker and returns the
// ids of workers who churned as a result. Fully transparent platforms
// (score 1) have zero drag.
func (m *Model) EndRound() []model.WorkerID {
	drag := m.params.OpacityDrag * (1 - m.transparency)
	if drag == 0 {
		return nil
	}
	var churned []model.WorkerID
	ids := make([]model.WorkerID, 0, len(m.satisfaction))
	for id := range m.satisfaction {
		ids = append(ids, id)
	}
	// Deterministic order keeps runs reproducible across map iteration.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		if m.left[id] {
			continue
		}
		if m.shift(id, -drag) {
			churned = append(churned, id)
		}
	}
	return churned
}

// EffectiveQuality modulates a worker's skill-determined base quality by
// their current engagement. Satisfied workers work near (above) base;
// dissatisfied ones degrade.
func (m *Model) EffectiveQuality(id model.WorkerID, base float64) float64 {
	s := m.satisfaction[id]
	q := base * (1 - m.params.QualityCoupling/2 + m.params.QualityCoupling*s)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return q
}

// RetentionRate returns the share of joined workers still active.
func (m *Model) RetentionRate() float64 {
	if len(m.satisfaction) == 0 {
		return 1
	}
	left := 0
	for id := range m.satisfaction {
		if m.left[id] {
			left++
		}
	}
	return 1 - float64(left)/float64(len(m.satisfaction))
}
