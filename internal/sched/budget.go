package sched

import (
	"context"
	"time"
)

// Budget bounds the work one ScheduleInto call may perform. The zero value
// is unlimited — the hot path then skips every check. A hostile loop
// (ejection storm, II escalation on a RecMII-hard recurrence) can
// therefore never hang a caller that sets any bound: the engine checks
// the budget at every II-attempt boundary and every budgetCheckStride
// iterations of the central loop, and on exhaustion returns a
// *BudgetError carrying the partial evidence gathered so far.
type Budget struct {
	// Deadline caps the wall-clock time of one ScheduleInto call, measured
	// from its entry. 0 means unlimited.
	Deadline time.Duration
	// MaxCentralIters caps the central-loop iterations summed across
	// all II attempts. 0 means unlimited.
	MaxCentralIters int64
	// MaxIIAttempts caps how many II values are tried. 0 means
	// unlimited (the ceiling is then Config.MaxII or its derived
	// default).
	MaxIIAttempts int
}

// Limited reports whether any bound is set.
func (b Budget) Limited() bool {
	return b.Deadline > 0 || b.MaxCentralIters > 0 || b.MaxIIAttempts > 0
}

// budgetCheckStride is the central-loop iteration interval between
// deadline/cancellation polls: coarse enough that time.Now stays off
// the per-placement path, fine enough that one attempt can overshoot
// its deadline by at most a few hundred cheap iterations.
const budgetCheckStride = 256

// The exhaustion reasons reported in BudgetError.Reason.
const (
	ReasonDeadline     = "deadline"
	ReasonCentralIters = "central-iterations"
	ReasonIIAttempts   = "ii-attempts"
	ReasonCanceled     = "canceled"
)

// budgetGuard is the engine's per-call budget state. active is false
// for unbudgeted, uncancellable calls, which then pay one branch per
// stride and nothing else.
type budgetGuard struct {
	ctx      context.Context
	budget   Budget
	deadline time.Time // zero when no wall-clock bound applies
	active   bool
}

func newBudgetGuard(ctx context.Context, b Budget) budgetGuard {
	g := budgetGuard{ctx: ctx, budget: b}
	now := time.Time{}
	if b.Deadline > 0 {
		now = time.Now()
		g.deadline = now.Add(b.Deadline)
	}
	if d, ok := ctx.Deadline(); ok && (g.deadline.IsZero() || d.Before(g.deadline)) {
		g.deadline = d
	}
	g.active = b.Limited() || ctx.Done() != nil || !g.deadline.IsZero()
	return g
}

// exceeded reports why the budget is exhausted ("" if it is not),
// checking cancellation, the wall clock, and the central-iteration cap.
func (g *budgetGuard) exceeded(stats *Stats) string {
	if !g.active {
		return ""
	}
	if g.ctx.Err() != nil {
		return ReasonCanceled
	}
	if !g.deadline.IsZero() && !time.Now().Before(g.deadline) {
		return ReasonDeadline
	}
	if g.budget.MaxCentralIters > 0 && stats.CentralIters >= g.budget.MaxCentralIters {
		return ReasonCentralIters
	}
	return ""
}

// attemptExceeded runs the boundary check before an II attempt: the
// stride checks plus the attempt cap (attempted is the number already
// finished).
func (g *budgetGuard) attemptExceeded(stats *Stats, attempted int) string {
	if !g.active {
		return ""
	}
	if g.budget.MaxIIAttempts > 0 && attempted >= g.budget.MaxIIAttempts {
		return ReasonIIAttempts
	}
	return g.exceeded(stats)
}

// stop returns a poll function for long analyses (the MinDist cache),
// or nil when the guard is inactive.
func (g *budgetGuard) stop() func() bool {
	if !g.active {
		return nil
	}
	return func() bool { return g.exceeded(&Stats{}) != "" }
}
