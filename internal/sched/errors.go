package sched

import (
	"errors"
	"fmt"
)

// The package's sentinel errors. Both are carried by typed errors
// (InfeasibleError, BudgetError) holding the partial evidence of the
// run; match the class with errors.Is and recover the evidence with
// errors.As:
//
//	err := s.ScheduleInto(ctx, l, res)
//	var be *sched.BudgetError
//	switch {
//	case errors.As(err, &be):        // budget/deadline/cancellation; be.Stats has the effort
//	case errors.Is(err, sched.ErrInfeasible): // MaxII exhausted; res records the last II tried
//	}
var (
	// ErrInfeasible reports that no feasible schedule was found before
	// the II ceiling (Config.MaxII or its derived default).
	ErrInfeasible = errors.New("sched: no feasible schedule within the II ceiling")
	// ErrBudgetExhausted reports that the Config.Budget (or the
	// context's deadline/cancellation) ran out mid-search.
	ErrBudgetExhausted = errors.New("sched: scheduling budget exhausted")
)

// InfeasibleError is the typed carrier of ErrInfeasible: the scheduler
// exhausted every II up to the ceiling. The destination Result still
// records the same evidence (FailedII, Stats) for
// callers that tabulate failures, the convention of the paper's
// Table 4.
type InfeasibleError struct {
	Loop   string
	Policy string
	MII    int
	MaxII  int // the ceiling that was exhausted
	LastII int // the last II attempted
	Stats  Stats
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("sched: %s: %s found no feasible schedule up to II=%d (MII %d, last attempted %d)",
		e.Loop, e.Policy, e.MaxII, e.MII, e.LastII)
}

// Is matches ErrInfeasible, so errors.Is(err, ErrInfeasible) holds.
func (e *InfeasibleError) Is(target error) bool { return target == ErrInfeasible }

// BudgetError is the typed carrier of ErrBudgetExhausted: the search
// stopped before reaching a verdict. It carries the partial evidence —
// the best (last) II attempted, the loop's MII, and the effort counters
// at the moment the budget tripped — so callers can log, degrade, or
// retry with a larger budget.
type BudgetError struct {
	Loop   string
	Policy string
	Reason string // one of the Reason* constants
	MII    int
	LastII int // the II being attempted when the budget tripped
	Stats  Stats
	// Cause is the context error when Reason is ReasonCanceled (so
	// errors.Is(err, context.Canceled) also matches); nil otherwise.
	Cause error
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sched: %s: %s budget exhausted (%s) at II=%d after %d attempt(s), %d central iteration(s)",
		e.Loop, e.Policy, e.Reason, e.LastII, e.Stats.IIAttempts, e.Stats.CentralIters)
}

// Is matches ErrBudgetExhausted, so errors.Is(err, ErrBudgetExhausted)
// holds.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExhausted }

// Unwrap exposes the context error on cancellation.
func (e *BudgetError) Unwrap() error { return e.Cause }
