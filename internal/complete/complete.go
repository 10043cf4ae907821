// Package complete implements the task-completion process of §3.1.1: the
// lifecycle of an assignment from offer to paid contribution, including the
// over-publication/cancellation scenario the paper uses to motivate Axiom 5
// ("a worker who started completing a task should not be interrupted").
//
// The engine is a deterministic state machine over assignments. Requesters
// publish more assignments than they need (Published > Quota); a
// CancellationPolicy decides what happens to in-flight work once the quota
// of acceptable contributions is reached. The engine emits the full event
// trace (started / submitted / interrupted / cancelled) to an eventlog.Log
// so the Axiom 5 checker can audit it afterwards.
package complete

import (
	"errors"
	"fmt"

	"repro/internal/eventlog"
	"repro/internal/model"
)

// State is the lifecycle state of one assignment.
type State uint8

// Assignment lifecycle states.
const (
	StateOffered State = iota // visible to the worker, not yet started
	StateStarted              // worker is actively completing
	StateSubmitted
	StateInterrupted // halted by cancellation while started — the Axiom 5 violation
	StateWithdrawn   // cancelled before the worker started (no violation)
)

// String renders the state for reports.
func (s State) String() string {
	switch s {
	case StateOffered:
		return "offered"
	case StateStarted:
		return "started"
	case StateSubmitted:
		return "submitted"
	case StateInterrupted:
		return "interrupted"
	case StateWithdrawn:
		return "withdrawn"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// CancellationPolicy decides how a requester treats open assignments once
// the task quota is met.
type CancellationPolicy uint8

// Cancellation policies, ordered from worker-friendliest to harshest.
const (
	// CancelNever lets every started assignment run to submission; only
	// un-started offers are withdrawn when the task fully completes.
	CancelNever CancellationPolicy = iota
	// CancelGrace withdraws un-started offers immediately at quota but lets
	// started work finish (and be paid).
	CancelGrace
	// CancelOnQuota cancels everything the moment quota is reached,
	// interrupting started work without pay — the scenario §3.1.1 describes
	// ("a requester cancels tasks when she gets the target number of
	// acceptable responses ... unfair to a worker who has partially
	// completed a task but is not paid for her efforts").
	CancelOnQuota
)

// String renders the policy name.
func (p CancellationPolicy) String() string {
	switch p {
	case CancelNever:
		return "never"
	case CancelGrace:
		return "grace"
	case CancelOnQuota:
		return "on-quota"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// Errors returned by Engine transitions.
var (
	ErrUnknownTask       = errors.New("complete: unknown task")
	ErrUnknownAssignment = errors.New("complete: unknown assignment")
	ErrBadTransition     = errors.New("complete: invalid state transition")
	ErrTaskClosed        = errors.New("complete: task closed")
)

// assignment is the engine's internal record.
type assignment struct {
	worker model.WorkerID
	task   model.TaskID
	state  State
	// effort is the number of ticks the worker has spent since starting.
	effort int64
	start  int64
}

type taskState struct {
	task      *model.Task
	accepted  int // accepted submissions so far
	submitted int
	closed    bool
	open      map[model.WorkerID]*assignment
}

// Engine runs task completion for a set of tasks under one cancellation
// policy, writing the event trace to Log.
type Engine struct {
	policy CancellationPolicy
	log    *eventlog.Log
	tasks  map[model.TaskID]*taskState
	now    int64

	// Metrics accumulated over the run.
	interrupted  int
	withdrawn    int
	submissions  int
	wastedEffort int64 // ticks spent on work that was interrupted
	totalEffort  int64 // ticks spent on work that was submitted
}

// NewEngine returns an engine with the given policy, logging to log (which
// must be non-nil).
func NewEngine(policy CancellationPolicy, log *eventlog.Log) *Engine {
	return &Engine{
		policy: policy,
		log:    log,
		tasks:  make(map[model.TaskID]*taskState),
	}
}

// Now returns the engine's current logical time.
func (e *Engine) Now() int64 { return e.now }

// Advance moves the logical clock forward by d ticks (d >= 0) and credits
// effort to every started assignment.
func (e *Engine) Advance(d int64) {
	if d < 0 {
		panic("complete: negative time advance")
	}
	e.now += d
	for _, ts := range e.tasks {
		for _, a := range ts.open {
			if a.state == StateStarted {
				a.effort += d
			}
		}
	}
}

// Post registers a task with the engine and logs TaskPosted.
func (e *Engine) Post(t *model.Task) error {
	if _, dup := e.tasks[t.ID]; dup {
		return fmt.Errorf("task %s: already posted", t.ID)
	}
	e.tasks[t.ID] = &taskState{task: t.Clone(), open: make(map[model.WorkerID]*assignment)}
	e.log.MustAppend(eventlog.Event{
		Time: e.now, Type: eventlog.TaskPosted, Task: t.ID, Requester: t.Requester,
	})
	return nil
}

// Offer makes the task visible to the worker and logs TaskOffered. Offers
// against closed tasks fail with ErrTaskClosed.
func (e *Engine) Offer(taskID model.TaskID, worker model.WorkerID) error {
	ts, ok := e.tasks[taskID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, taskID)
	}
	if ts.closed {
		return fmt.Errorf("%w: %s", ErrTaskClosed, taskID)
	}
	if _, dup := ts.open[worker]; dup {
		return fmt.Errorf("%w: worker %s already holds task %s", ErrBadTransition, worker, taskID)
	}
	ts.open[worker] = &assignment{worker: worker, task: taskID, state: StateOffered}
	e.log.MustAppend(eventlog.Event{
		Time: e.now, Type: eventlog.TaskOffered, Task: taskID, Worker: worker,
		Requester: ts.task.Requester,
	})
	return nil
}

// Start marks the worker as actively completing the task.
func (e *Engine) Start(taskID model.TaskID, worker model.WorkerID) error {
	a, ts, err := e.lookup(taskID, worker)
	if err != nil {
		return err
	}
	if a.state != StateOffered {
		return fmt.Errorf("%w: start from %s", ErrBadTransition, a.state)
	}
	if ts.closed {
		return fmt.Errorf("%w: %s", ErrTaskClosed, taskID)
	}
	a.state = StateStarted
	a.start = e.now
	e.log.MustAppend(eventlog.Event{
		Time: e.now, Type: eventlog.TaskStarted, Task: taskID, Worker: worker,
		Requester: ts.task.Requester,
	})
	return nil
}

// Submit records the worker's contribution; accepted controls whether it
// counts toward the quota. When the quota is reached the cancellation
// policy fires against the task's remaining open assignments.
func (e *Engine) Submit(taskID model.TaskID, worker model.WorkerID, contribution model.ContributionID, accepted bool) error {
	a, ts, err := e.lookup(taskID, worker)
	if err != nil {
		return err
	}
	if a.state != StateStarted {
		return fmt.Errorf("%w: submit from %s", ErrBadTransition, a.state)
	}
	a.state = StateSubmitted
	e.submissions++
	e.totalEffort += a.effort
	ts.submitted++
	delete(ts.open, worker)
	e.log.MustAppend(eventlog.Event{
		Time: e.now, Type: eventlog.TaskSubmitted, Task: taskID, Worker: worker,
		Requester: ts.task.Requester, Contribution: contribution,
	})
	if accepted {
		ts.accepted++
		if ts.accepted >= ts.task.EffectiveQuota() {
			e.closeTask(ts)
		}
	}
	return nil
}

// closeTask applies the cancellation policy when quota is met.
func (e *Engine) closeTask(ts *taskState) {
	if ts.closed {
		return
	}
	ts.closed = true
	e.log.MustAppend(eventlog.Event{
		Time: e.now, Type: eventlog.TaskCancelled, Task: ts.task.ID,
		Requester: ts.task.Requester, Note: "quota reached: " + e.policy.String(),
	})
	for w, a := range ts.open {
		switch a.state {
		case StateOffered:
			// Withdrawing an offer the worker has not begun is not an
			// Axiom 5 violation under any policy.
			a.state = StateWithdrawn
			e.withdrawn++
			delete(ts.open, w)
		case StateStarted:
			switch e.policy {
			case CancelNever, CancelGrace:
				// Started work is allowed to finish; keep it open.
			case CancelOnQuota:
				a.state = StateInterrupted
				e.interrupted++
				e.wastedEffort += a.effort
				delete(ts.open, w)
				e.log.MustAppend(eventlog.Event{
					Time: e.now, Type: eventlog.TaskInterrupted, Task: ts.task.ID,
					Worker: w, Requester: ts.task.Requester,
					Note: "cancelled while in progress",
				})
			}
		}
	}
}

// lookup finds the assignment for (task, worker).
func (e *Engine) lookup(taskID model.TaskID, worker model.WorkerID) (*assignment, *taskState, error) {
	ts, ok := e.tasks[taskID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownTask, taskID)
	}
	a, ok := ts.open[worker]
	if !ok {
		return nil, nil, fmt.Errorf("%w: worker %s on task %s", ErrUnknownAssignment, worker, taskID)
	}
	return a, ts, nil
}

// TaskClosed reports whether the task has reached quota and been closed.
func (e *Engine) TaskClosed(taskID model.TaskID) bool {
	ts, ok := e.tasks[taskID]
	return ok && ts.closed
}

// CanSubmitLate reports whether a started assignment survived closure (only
// possible under CancelNever/CancelGrace).
func (e *Engine) CanSubmitLate(taskID model.TaskID, worker model.WorkerID) bool {
	ts, ok := e.tasks[taskID]
	if !ok {
		return false
	}
	a, ok := ts.open[worker]
	return ok && a.state == StateStarted
}

// Metrics summarises a completed run for the E5 experiment.
type Metrics struct {
	Policy       CancellationPolicy
	Submissions  int
	Interrupted  int   // started assignments killed by cancellation
	Withdrawn    int   // offers withdrawn before start (no violation)
	WastedEffort int64 // ticks of work discarded by interruption
	TotalEffort  int64 // ticks of work that resulted in submissions
}

// InterruptionRate returns interrupted / (interrupted + submissions): the
// share of begun work that was killed.
func (m Metrics) InterruptionRate() float64 {
	total := m.Interrupted + m.Submissions
	if total == 0 {
		return 0
	}
	return float64(m.Interrupted) / float64(total)
}

// Metrics returns the run metrics so far.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		Policy:       e.policy,
		Submissions:  e.submissions,
		Interrupted:  e.interrupted,
		Withdrawn:    e.withdrawn,
		WastedEffort: e.wastedEffort,
		TotalEffort:  e.totalEffort,
	}
}
