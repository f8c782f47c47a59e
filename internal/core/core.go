// Package core is the top-level API of the library: it takes a loop body
// and produces everything the paper's compiler produced — a modulo
// schedule at (or near) the minimum initiation interval, its lower
// bounds, register-pressure measurements against the schedule-independent
// MinAvg bound, a rotating-register allocation, and kernel-only VLIW
// code — plus a differential verifier that executes the generated kernel
// on the cycle-accurate simulator and compares it against the sequential
// reference interpreter.
//
// # Public API surface and stability
//
// The stable entry points are CompileContext (and its background-context
// wrapper Compile), the scheduler registry (Register, Lookup,
// Schedulers), and VerifyExecution. Scheduling policies are looked up by
// SchedulerName in a registry the four built-ins populate at init time,
// so new policies plug in without core edits. Failures are typed and
// matchable with errors.Is / errors.As:
//
//   - core.ErrUnknownScheduler — Options.Scheduler has no registration;
//   - sched.ErrInfeasible — the II ceiling was exhausted (carried by a
//     *sched.InfeasibleError; the partial *Compiled is still returned);
//   - sched.ErrBudgetExhausted — the sched.Budget or context ran out
//     (carried by a *sched.BudgetError with the effort evidence).
//
// With Options.Degrade set, a budget-exhausted compilation falls back to
// the no-backtracking list scheduler so callers still receive a feasible
// (if suboptimal) kernel; the result is marked Degraded and retains the
// triggering BudgetErr.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/mindist"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sched"
	"repro/internal/semantics"
	"repro/internal/vliw"
)

// Options configures a compilation.
type Options struct {
	Scheduler SchedulerName // default SchedSlack
	Config    sched.Config
	// SkipCodegen stops after scheduling and pressure measurement
	// (the benchmark harness schedules thousands of loops and does not
	// need kernels for most experiments).
	SkipCodegen bool
	// Degrade falls back to the no-backtracking list scheduler when the
	// configured scheduler exhausts its sched.Budget, so a budgeted
	// caller still gets a feasible (if suboptimal) kernel. The fallback
	// runs without a budget (the list scheduler's work is bounded) but
	// still honors context cancellation; the result is marked Degraded.
	Degrade bool
}

// Compiled is the result of compiling one loop.
type Compiled struct {
	Loop   *ir.Loop
	Result *sched.Result

	// Pressure measurements (only when scheduling succeeded).
	RR     lifetime.Pressure // RR-file pressure; RR.MaxLive is the paper's metric
	MinAvg int               // schedule-independent lower bound at the achieved II
	ICR    int               // ICR predicate usage (Figure 8)
	GPRs   int               // loop invariants (Figure 7)

	// Kernel is the generated code (nil when SkipCodegen or failure).
	Kernel *codegen.Kernel

	// Degraded reports that the configured scheduler exhausted its
	// budget and Result came from the list-scheduler fallback
	// (Options.Degrade); BudgetErr is the exhaustion that triggered it.
	Degraded  bool
	BudgetErr *sched.BudgetError
}

// OK reports whether a feasible schedule was found.
func (c *Compiled) OK() bool { return c.Result != nil && c.Result.OK() }

// Compile is CompileContext with a background context and the legacy
// give-up contract: an infeasible loop (II ceiling exhausted) returns
// (c, nil) with c.OK() false rather than an ErrInfeasible, matching the
// paper's Table 4 convention of tabulating failures as data. All other
// errors — including budget exhaustion — pass through unchanged.
func Compile(l *ir.Loop, opt Options) (*Compiled, error) {
	c, err := CompileContext(context.Background(), l, opt)
	if errors.Is(err, sched.ErrInfeasible) && c != nil {
		err = nil
	}
	return c, err
}

// CompileContext schedules the loop and, by default, generates kernel
// code. The context and Options.Config.Budget bound the scheduling
// search (see sched.Scheduler.ScheduleInto); on exhaustion the error
// matches sched.ErrBudgetExhausted unless Options.Degrade rescues the
// compilation with the list scheduler. When scheduling fails with
// ErrInfeasible or ErrBudgetExhausted, the returned *Compiled is still
// non-nil and carries the partial sched.Result as evidence.
func CompileContext(ctx context.Context, l *ir.Loop, opt Options) (*Compiled, error) {
	c := &Compiled{}
	err := CompileInto(ctx, c, l, opt)
	if c.Loop == nil {
		// CompileInto zeroed the destination: nothing was produced
		// (unknown scheduler, preflight failure, or a hard
		// mindist/codegen error) — the legacy nil-Compiled contract.
		return nil, err
	}
	return c, err
}

// CompileInto is CompileContext writing into a caller-owned Compiled:
// dst's previous contents are destroyed, but the result buffers they
// carry — dst.Result itself, its Schedule.Time slice, its MinDist
// backing array — are recycled, so a caller that reuses one Compiled
// across compilations (the lsmsd worker loop, the bench sweep) reaches
// the pipeline's allocation floor: zero result-object allocations per
// compile in steady state. The caller must not retain references into
// dst across calls.
//
// The outcome contract mirrors CompileContext exactly: on unknown
// scheduler, preflight failure, or a hard mindist/codegen error dst is
// zeroed (dst.Loop == nil) and the error returned; on scheduling
// failure dst carries the partial evidence alongside the typed error;
// on success (or a rescued Degrade) err is nil and dst is complete.
func CompileInto(ctx context.Context, dst *Compiled, l *ir.Loop, opt Options) error {
	// Recycle the result buffers the previous compilation left behind;
	// everything else resets.
	res := dst.Result
	if res == nil {
		res = &sched.Result{}
	}
	*dst = Compiled{}

	if opt.Scheduler == "" {
		opt.Scheduler = SchedSlack
	}
	factory, ok := Lookup(opt.Scheduler)
	if !ok {
		return fmt.Errorf("%w: %q (registered: %v)", ErrUnknownScheduler, opt.Scheduler, Schedulers())
	}
	// One pooled arena per compilation: the scheduler, a possible
	// degrade fallback, and the pressure measurements share its scratch.
	// The deferred release covers every exit path, including panics
	// isolated by callers (e.g. the lsmsd panic barrier and the bench
	// sweep's per-loop guard), so a crashing loop cannot strand scratch.
	arena := opt.Config.Arena
	if arena == nil {
		arena = sched.AcquireArena()
		opt.Config.Arena = arena
		defer arena.Release()
	}
	tr := obs.FromContext(ctx)
	if tr != nil {
		tr.Scheduler = string(opt.Scheduler)
	}
	sp := tr.Start("schedule").Str("scheduler", string(opt.Scheduler))
	err := factory(opt.Config).ScheduleInto(ctx, l, res)
	if res.Loop == nil {
		res = nil // preflight failure: the zeroed buffer carries nothing
	} else {
		sp.Int("ii", int64(res.II())).Int("mii", int64(res.Bounds.MII))
		*dst = Compiled{Loop: l, Result: res, GPRs: l.GPRCount()}
	}
	sp.End(scheduleOutcome(err))
	if err != nil {
		var be *sched.BudgetError
		if errors.As(err, &be) && opt.Degrade && opt.Scheduler != SchedList && ctx.Err() == nil {
			dres, derr := degrade(ctx, l, opt, be)
			if derr != nil {
				// dst keeps the budget-exhausted partial as evidence.
				return derr
			}
			if res == nil {
				res = dres
			} else {
				*res = *dres
			}
			*dst = Compiled{Loop: l, Result: res, GPRs: l.GPRCount(), Degraded: true, BudgetErr: be}
		} else {
			return err
		}
	}
	if res == nil || !res.OK() {
		return nil
	}
	s := res.Schedule
	spp := tr.Start("pressure").Int("ii", int64(s.II))
	dst.RR = lifetime.MeasureIn(l, s, ir.RR, arena.Lifetime())
	dst.ICR = lifetime.ICRUsageIn(l, s, arena.Lifetime())
	// Every scheduler plumbs the table at its final II through
	// res.MinDist, so on success the recompute below never triggers; it
	// remains as a defensive fallback for external Result producers.
	md := res.MinDist
	if md == nil || md.II != s.II {
		md, err = mindist.Compute(l, s.II)
		if err != nil {
			*dst = Compiled{}
			return fmt.Errorf("core: recomputing MinDist: %w", err)
		}
	}
	dst.MinAvg = mindist.MinAvg(l, md, ir.RR)
	spp.Int("maxlive", int64(dst.RR.MaxLive)).Int("minavg", int64(dst.MinAvg)).End(obs.OutcomeOK)
	if !opt.SkipCodegen {
		spc := tr.Start("codegen").Int("ii", int64(s.II))
		k, err := codegen.GenerateContext(ctx, l, s)
		if err != nil {
			spc.End(obs.OutcomeError)
			*dst = Compiled{}
			return err
		}
		spc.Int("nrr", int64(k.NRR)).Int("nicr", int64(k.NICR)).End(obs.OutcomeOK)
		dst.Kernel = k
	}
	return nil
}

// scheduleOutcome classifies a scheduling error for the "schedule" span:
// budget errors carry the exhausted bound (the Reason strings are the
// obs outcome names), infeasibility and other failures map to their own
// outcomes.
func scheduleOutcome(err error) string {
	if err == nil {
		return obs.OutcomeOK // before declaring be: errors.As forces it to escape
	}
	var be *sched.BudgetError
	switch {
	case errors.As(err, &be):
		if be.Reason != "" {
			return be.Reason
		}
		return obs.OutcomeBudgetExhausted
	case errors.Is(err, sched.ErrInfeasible):
		return obs.OutcomeInfeasible
	default:
		return obs.OutcomeError
	}
}

// degrade runs the no-backtracking list scheduler after be exhausted
// the configured scheduler's budget. The fallback is unbudgeted — the
// list scheduler performs a bounded amount of work per II and never
// backtracks — but keeps the caller's observers informed via an
// EvDegraded event, and the context still cancels it. An infeasible
// fallback reports the original budget error: the budgeted scheduler's
// verdict is the more meaningful one.
func degrade(ctx context.Context, l *ir.Loop, opt Options, be *sched.BudgetError) (*sched.Result, error) {
	cfg := opt.Config
	cfg.Budget = sched.Budget{}
	if cfg.Observer != nil {
		cfg.Observer.Event(sched.Event{
			Kind:   sched.EvDegraded,
			Loop:   l.Name,
			Policy: be.Policy,
			II:     be.LastII,
			Op:     -1,
		})
	}
	sp := obs.FromContext(ctx).Start("degrade").Str("from", be.Policy).Str("reason", be.Reason)
	res := &sched.Result{}
	err := sched.List(cfg).ScheduleInto(ctx, l, res)
	if res.Loop == nil {
		res = nil // preflight failure: the zeroed buffer carries nothing
	}
	if err != nil && !errors.Is(err, sched.ErrInfeasible) {
		sp.End(obs.OutcomeError)
		return res, err
	}
	if res == nil || !res.OK() {
		sp.End(obs.OutcomeInfeasible)
		return res, be
	}
	sp.Int("ii", int64(res.II())).End(obs.OutcomeOK)
	return res, nil
}

// VerifyExecution runs the generated kernel on the VLIW simulator and
// the loop on the sequential interpreter, and reports any divergence in
// memory, live-out values, or executed-operation counts. It is the
// repository's end-to-end correctness check.
func VerifyExecution(c *Compiled, env *rt.Env, trips int) error {
	if c.Kernel == nil {
		return fmt.Errorf("core: no kernel to verify for %s", c.Loop.Name)
	}
	want, err := interp.Run(c.Loop, env, trips)
	if err != nil {
		return fmt.Errorf("core: interpreter: %w", err)
	}
	got, err := vliw.Run(c.Kernel, env, trips, vliw.Config{Paranoid: true})
	if err != nil {
		return fmt.Errorf("core: simulator: %w", err)
	}
	if len(want.Mem) != len(got.Mem) {
		return fmt.Errorf("core: memory size mismatch: %d vs %d", len(want.Mem), len(got.Mem))
	}
	for i := range want.Mem {
		if !semantics.Equal(want.Mem[i], got.Mem[i]) {
			return fmt.Errorf("core: %s: memory[%d] differs: interp %+v, vliw %+v",
				c.Loop.Name, i, want.Mem[i], got.Mem[i])
		}
	}
	for v, w := range want.LiveOut {
		g, ok := got.LiveOut[v]
		if !ok {
			return fmt.Errorf("core: %s: live-out %s missing from simulation", c.Loop.Name, c.Loop.Value(v).Name)
		}
		if !semantics.Equal(w, g) {
			return fmt.Errorf("core: %s: live-out %s differs: interp %+v, vliw %+v",
				c.Loop.Name, c.Loop.Value(v).Name, w, g)
		}
	}
	if want.Executed != got.Executed {
		return fmt.Errorf("core: %s: executed-op count differs: interp %d, vliw %d",
			c.Loop.Name, want.Executed, got.Executed)
	}
	return nil
}
