// Package model defines the crowdsourcing data model of Borromeo et al.
// (EDBT 2017), §3.2: tasks with required-skill vectors and rewards, workers
// with self-declared and computed attributes plus interest-skill vectors,
// requesters, and worker contributions.
//
// The types here are deliberately plain data: behaviour (assignment,
// payment, fairness checking, ...) lives in the sibling packages so that a
// platform trace can be serialised, stored, and audited independently of
// any particular algorithm.
package model

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Common validation errors returned by the Validate methods.
var (
	ErrEmptyID        = errors.New("model: empty identifier")
	ErrNegativeReward = errors.New("model: negative reward")
	ErrNoSkills       = errors.New("model: skill universe is empty")
	ErrUnknownSkill   = errors.New("model: skill not in universe")
)

// WorkerID uniquely identifies a worker (id_w in the paper).
type WorkerID string

// TaskID uniquely identifies a task (id_t in the paper).
type TaskID string

// RequesterID uniquely identifies a requester (id_r in the paper).
type RequesterID string

// ContributionID uniquely identifies a single worker contribution to a task.
type ContributionID string

// SkillVector is the Boolean vector ⟨s1..sm⟩ of §3.2: for a task it marks
// required skills, for a worker it marks interests/qualifications. The
// indices refer to positions in a Universe.
//
// A []bool is the form callers write. The similarity measures read the
// packed form (SkillBits), which PackSkills derives from it when an entity
// enters the store (Clone packs its copy), so a caller that edits Skills
// hands the edited entity back through a store mutation.
type SkillVector []bool

// NewSkillVector returns an all-false vector of length m.
func NewSkillVector(m int) SkillVector { return make(SkillVector, m) }

// Clone returns an independent copy of v.
func (v SkillVector) Clone() SkillVector {
	return append(SkillVector(nil), v...)
}

// Covers reports whether v has every skill set in req — the qualification
// predicate "worker v qualifies for task req".
func (v SkillVector) Covers(req SkillVector) bool {
	for i, need := range req {
		if need && (i >= len(v) || !v[i]) {
			return false
		}
	}
	return true
}

// Pack returns the packed form of v.
func (v SkillVector) Pack() SkillBits {
	p := SkillBits{words: make([]uint64, (len(v)+63)/64), n: len(v)}
	for i, set := range v {
		if set {
			p.words[i/64] |= 1 << (i % 64)
			p.count++
		}
	}
	return p
}

// String renders the vector as a compact bitstring, e.g. "10110".
func (v SkillVector) String() string {
	var b strings.Builder
	for _, set := range v {
		if set {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// SkillBits is the packed form of a SkillVector: position i is bit i%64 of
// word i/64, the bits past Len are zero, and the set count is cached. It is
// derived (SkillVector.Pack) and never written; the zero value is the empty
// vector.
type SkillBits struct {
	words []uint64
	n     int
	count int
}

// Len returns the length of the vector the bits were packed from.
func (p SkillBits) Len() int { return p.n }

// Count returns the number of set skills.
func (p SkillBits) Count() int { return p.count }

// Words returns the packed words, ⌈Len/64⌉ of them. The slice is shared:
// callers must not modify it.
func (p SkillBits) Words() []uint64 { return p.words }

// of returns p when it was packed from a vector of v's length, else v
// packed now.
func (p SkillBits) of(v SkillVector) SkillBits {
	if p.n == len(v) {
		return p
	}
	return v.Pack()
}

// Universe names the skill keywords S = {s1..sm} shared by all tasks and
// workers on a platform. A Universe is immutable after construction.
type Universe struct {
	names []string
	index map[string]int
}

// NewUniverse builds a universe from skill keyword names. Names are
// deduplicated; order of first appearance is preserved. It returns an error
// if no names are supplied or any name is empty.
func NewUniverse(names ...string) (*Universe, error) {
	if len(names) == 0 {
		return nil, ErrNoSkills
	}
	u := &Universe{index: make(map[string]int, len(names))}
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("model: empty skill name: %w", ErrUnknownSkill)
		}
		if _, dup := u.index[n]; dup {
			continue
		}
		u.index[n] = len(u.names)
		u.names = append(u.names, n)
	}
	return u, nil
}

// MustUniverse is NewUniverse that panics on error; intended for tests and
// examples with literal inputs.
func MustUniverse(names ...string) *Universe {
	u, err := NewUniverse(names...)
	if err != nil {
		panic(err)
	}
	return u
}

// Size returns m, the number of skill keywords.
func (u *Universe) Size() int { return len(u.names) }

// Names returns a copy of all keyword names in index order.
func (u *Universe) Names() []string { return append([]string(nil), u.names...) }

// Index returns the position of a keyword, or an error if unknown.
func (u *Universe) Index(name string) (int, error) {
	i, ok := u.index[name]
	if !ok {
		return 0, fmt.Errorf("model: skill %q: %w", name, ErrUnknownSkill)
	}
	return i, nil
}

// Vector builds a SkillVector with the named skills set. Unknown names
// yield an error.
func (u *Universe) Vector(names ...string) (SkillVector, error) {
	v := NewSkillVector(u.Size())
	for _, n := range names {
		i, err := u.Index(n)
		if err != nil {
			return nil, err
		}
		v[i] = true
	}
	return v, nil
}

// MustVector is Vector that panics on error.
func (u *Universe) MustVector(names ...string) SkillVector {
	v, err := u.Vector(names...)
	if err != nil {
		panic(err)
	}
	return v
}

// Attributes is a set of named scalar attributes. For workers it holds both
// the self-declared set A_w (demographics, location, ...) and the computed
// set C_w (acceptance ratio, performance, ...). String values are modelled
// as categories; numeric values as float64.
type Attributes map[string]AttrValue

// AttrValue is a tagged union of the attribute kinds the model supports.
// Exactly one of the fields is meaningful, selected by Kind.
type AttrValue struct {
	Kind AttrKind
	Num  float64
	Str  string
}

// AttrKind discriminates AttrValue variants.
type AttrKind uint8

// Attribute kinds.
const (
	AttrNum AttrKind = iota // numeric attribute (e.g. acceptance ratio)
	AttrStr                 // categorical attribute (e.g. country)
)

// Num returns a numeric attribute value.
func Num(x float64) AttrValue { return AttrValue{Kind: AttrNum, Num: x} }

// Str returns a categorical attribute value.
func Str(s string) AttrValue { return AttrValue{Kind: AttrStr, Str: s} }

// String renders the value for logs and reports.
func (a AttrValue) String() string {
	if a.Kind == AttrNum {
		return fmt.Sprintf("%g", a.Num)
	}
	return a.Str
}

// Clone returns an independent copy of the attribute set.
func (a Attributes) Clone() Attributes {
	if a == nil {
		return nil
	}
	out := make(Attributes, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Keys returns the attribute names in sorted order (for deterministic
// iteration in reports and similarity computations).
func (a Attributes) Keys() []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Task is the tuple (id_t, id_r, S_t, d_t) of §3.2 — a unit of work posted
// by a requester, requiring the skills in Skills and paying Reward on
// completion.
type Task struct {
	ID        TaskID
	Requester RequesterID
	Skills    SkillVector
	Reward    float64
	// Quota is the number of contributions the requester actually needs;
	// Published is how many assignments were opened. Published > Quota
	// models the over-publication scenario of §3.1.1 (survey tasks) that
	// Axiom 5 is concerned with. Zero values mean "one of each".
	Quota     int
	Published int
	// Title is an optional human-readable label used in reports.
	Title string

	bits SkillBits // Skills packed by PackSkills
}

// Validate reports structural problems with the task relative to universe u.
func (t *Task) Validate(u *Universe) error {
	if t.ID == "" {
		return fmt.Errorf("task: %w", ErrEmptyID)
	}
	if t.Requester == "" {
		return fmt.Errorf("task %s: requester: %w", t.ID, ErrEmptyID)
	}
	if t.Reward < 0 {
		return fmt.Errorf("task %s: %w", t.ID, ErrNegativeReward)
	}
	if len(t.Skills) != u.Size() {
		return fmt.Errorf("task %s: skill vector length %d != universe size %d: %w",
			t.ID, len(t.Skills), u.Size(), ErrUnknownSkill)
	}
	if t.Quota < 0 || t.Published < 0 {
		return fmt.Errorf("task %s: negative quota/published", t.ID)
	}
	return nil
}

// EffectiveQuota returns Quota, defaulting to 1.
func (t *Task) EffectiveQuota() int {
	if t.Quota <= 0 {
		return 1
	}
	return t.Quota
}

// EffectivePublished returns Published, defaulting to EffectiveQuota.
func (t *Task) EffectivePublished() int {
	if t.Published <= 0 {
		return t.EffectiveQuota()
	}
	return t.Published
}

// SkillBits returns the packed required skills. A task that entered the
// store carries them; any other task packs Skills on each call.
func (t *Task) SkillBits() SkillBits { return t.bits.of(t.Skills) }

// PackSkills derives the packed form SkillBits returns from Skills, in
// place. The store runs it on every task it installs.
func (t *Task) PackSkills() { t.bits = t.Skills.Pack() }

// Clone returns a deep copy of the task, with its skills packed afresh.
func (t *Task) Clone() *Task {
	c := *t
	c.Skills = t.Skills.Clone()
	c.PackSkills()
	return &c
}

// Worker is the tuple (id_w, A_w, C_w, S_w) of §3.2.
type Worker struct {
	ID       WorkerID
	Declared Attributes  // A_w: self-declared (demographics, location, ...)
	Computed Attributes  // C_w: platform-computed (acceptance ratio, ...)
	Skills   SkillVector // S_w: interests/qualifications

	bits SkillBits // Skills packed by PackSkills
}

// Validate reports structural problems with the worker relative to u.
func (w *Worker) Validate(u *Universe) error {
	if w.ID == "" {
		return fmt.Errorf("worker: %w", ErrEmptyID)
	}
	if len(w.Skills) != u.Size() {
		return fmt.Errorf("worker %s: skill vector length %d != universe size %d: %w",
			w.ID, len(w.Skills), u.Size(), ErrUnknownSkill)
	}
	return nil
}

// SkillBits returns the packed skills. A worker that entered the store
// carries them; any other worker packs Skills on each call.
func (w *Worker) SkillBits() SkillBits { return w.bits.of(w.Skills) }

// PackSkills derives the packed form SkillBits returns from Skills, in
// place. The store runs it on every worker it installs.
func (w *Worker) PackSkills() { w.bits = w.Skills.Pack() }

// Clone returns a deep copy of the worker, with its skills packed afresh.
func (w *Worker) Clone() *Worker {
	c := *w
	c.Declared = w.Declared.Clone()
	c.Computed = w.Computed.Clone()
	c.Skills = w.Skills.Clone()
	c.PackSkills()
	return &c
}

// Well-known computed attribute names. Platforms are free to add more; the
// fairness checkers compare whatever is present.
const (
	AttrAcceptanceRatio = "acceptance_ratio" // accepted / submitted
	AttrPerformance     = "performance"      // mean contribution quality
	AttrCompleted       = "completed"        // number of completed tasks
)

// Requester is a task publisher.
type Requester struct {
	ID RequesterID
	// Name is an optional display name.
	Name string
}

// Validate reports structural problems with the requester.
func (r *Requester) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("requester: %w", ErrEmptyID)
	}
	return nil
}

// Contribution is one worker's submitted answer to one task, together with
// its evaluation outcome. Payloads are free-form text (the paper's examples
// are text summarisation and survey answers); ranked-list contributions use
// Ranking instead.
type Contribution struct {
	ID     ContributionID
	Task   TaskID
	Worker WorkerID
	// Text is the textual payload; compared with n-gram similarity.
	Text string
	// Ranking is a ranked list of item identifiers; compared with nDCG.
	// Nil for textual contributions.
	Ranking []string
	// Quality in [0,1] as judged by the platform/requester (1 = perfect).
	Quality float64
	// Accepted records the requester's accept/reject decision.
	Accepted bool
	// Paid is the amount actually paid to the worker for this contribution.
	Paid float64
	// SubmittedAt is the simulation time of submission (arbitrary ticks).
	SubmittedAt int64
}

// Validate reports structural problems with the contribution.
func (c *Contribution) Validate() error {
	if c.ID == "" {
		return fmt.Errorf("contribution: %w", ErrEmptyID)
	}
	if c.Task == "" || c.Worker == "" {
		return fmt.Errorf("contribution %s: task/worker: %w", c.ID, ErrEmptyID)
	}
	if c.Quality < 0 || c.Quality > 1 {
		return fmt.Errorf("contribution %s: quality %v outside [0,1]", c.ID, c.Quality)
	}
	if c.Paid < 0 {
		return fmt.Errorf("contribution %s: %w", c.ID, ErrNegativeReward)
	}
	return nil
}

// Clone returns a deep copy of the contribution.
func (c *Contribution) Clone() *Contribution {
	cc := *c
	cc.Ranking = append([]string(nil), c.Ranking...)
	return &cc
}
