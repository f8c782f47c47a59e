package core

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
)

// The four built-ins self-register, with the paper's policy first and
// the rest sorted.
func TestSchedulersOrder(t *testing.T) {
	names := Schedulers()
	if len(names) < 4 {
		t.Fatalf("want at least the 4 built-ins, got %v", names)
	}
	if names[0] != SchedSlack {
		t.Fatalf("the paper's policy must lead: got %v", names)
	}
	rest := names[1:]
	if !sort.SliceIsSorted(rest, func(i, j int) bool { return rest[i] < rest[j] }) {
		t.Fatalf("tail not sorted: %v", names)
	}
	for _, want := range []SchedulerName{SchedSlack, SchedSlackUni, SchedCydrome, SchedList} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("built-in %q not registered", want)
		}
	}
}

func TestUnknownSchedulerError(t *testing.T) {
	l := fixture.Sample(machine.Cydra())
	_, err := CompileContext(context.Background(), l, Options{Scheduler: "no-such-policy"})
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("err = %v, want ErrUnknownScheduler", err)
	}
	if _, err := Compile(l, Options{Scheduler: "no-such-policy"}); !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("Compile err = %v, want ErrUnknownScheduler", err)
	}
}

// countingRunner is an external policy: it counts its calls and
// delegates to another runner.
type countingRunner struct {
	calls *int
	inner Runner
}

func (r countingRunner) ScheduleInto(ctx context.Context, l *ir.Loop, dst *sched.Result) error {
	*r.calls++
	return r.inner.ScheduleInto(ctx, l, dst)
}

// An external policy registered at runtime is reachable through Compile
// and listed by Schedulers.
func TestRegisterCustomPolicy(t *testing.T) {
	const name SchedulerName = "zz-custom"
	calls := 0
	Register(name, func(cfg sched.Config) Runner {
		return countingRunner{calls: &calls, inner: sched.List(cfg)}
	})
	defer func() { // the registry is process-global; leave it as found
		registry.Lock()
		delete(registry.m, name)
		registry.Unlock()
	}()

	found := false
	for _, n := range Schedulers() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("%q missing from Schedulers(): %v", name, Schedulers())
	}
	c, err := Compile(fixture.Sample(machine.Cydra()), Options{Scheduler: name, SkipCodegen: true})
	if err != nil || !c.OK() {
		t.Fatalf("custom policy compile: %v", err)
	}
	if calls != 1 {
		t.Fatalf("custom runner called %d times, want 1", calls)
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		name SchedulerName
		f    Factory
	}{
		{"", func(sched.Config) Runner { return nil }},
		{"x", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q, %v) did not panic", tc.name, tc.f)
				}
			}()
			Register(tc.name, tc.f)
		}()
	}
}

// Degrade rescues a budget-exhausted compilation with the list
// scheduler, preserving the triggering error as evidence.
func TestCompileDegrade(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	opt := Options{
		Scheduler:   SchedSlack,
		Config:      sched.Config{Budget: sched.Budget{Deadline: time.Nanosecond}},
		SkipCodegen: true,
	}
	// Without Degrade: the typed error, with the partial result.
	c, err := CompileContext(context.Background(), l, opt)
	if !errors.Is(err, sched.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if c == nil || c.OK() {
		t.Fatalf("want a partial, not-OK result, got %+v", c)
	}

	opt.Degrade = true
	c, err = CompileContext(context.Background(), l, opt)
	if err != nil {
		t.Fatalf("degraded compile: %v", err)
	}
	if !c.OK() || !c.Degraded {
		t.Fatalf("want a feasible degraded result, got OK=%v Degraded=%v", c.OK(), c.Degraded)
	}
	if c.BudgetErr == nil || !errors.Is(c.BudgetErr, sched.ErrBudgetExhausted) {
		t.Fatalf("degraded result lost the triggering budget error: %v", c.BudgetErr)
	}
	if c.Result.Policy != "list" {
		t.Fatalf("degraded result produced by %q, want the list scheduler", c.Result.Policy)
	}
}

// A canceled context is not rescued by Degrade — the caller asked out.
func TestDegradeRespectsCancellation(t *testing.T) {
	l := fixture.Daxpy(machine.Cydra())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileContext(ctx, l, Options{Scheduler: SchedSlack, Degrade: true, SkipCodegen: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
