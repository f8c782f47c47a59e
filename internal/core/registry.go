package core

import (
	"context"
	"errors"
	"sort"
	"sync"

	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/sched"
)

// SchedulerName selects a scheduling policy.
type SchedulerName string

// The built-in schedulers, self-registered at init time.
const (
	SchedSlack    SchedulerName = "slack" // the paper's bidirectional slack scheduler
	SchedSlackUni SchedulerName = "slack-unidirectional"
	SchedCydrome  SchedulerName = "cydrome" // the baseline "Old Scheduler"
	SchedList     SchedulerName = "list"    // no-backtracking list scheduler
	SchedExact    SchedulerName = "exact"   // branch-and-bound optimal (II, MaxLive)
)

// ErrUnknownScheduler reports a SchedulerName with no registered
// factory; Compile wraps it with the offending name, so match with
// errors.Is(err, core.ErrUnknownScheduler).
var ErrUnknownScheduler = errors.New("core: unknown scheduler")

// Runner schedules loops under a context into a caller-owned
// sched.Result; see sched.Scheduler.ScheduleInto for the buffer-reuse
// and error contract (typed *sched.InfeasibleError /
// *sched.BudgetError alongside the partial Result, a zeroed Result on
// preflight failure). *sched.Scheduler, *sched.ListScheduler and
// *exact.Scheduler implement it.
type Runner interface {
	ScheduleInto(ctx context.Context, l *ir.Loop, dst *sched.Result) error
}

// Factory builds a ready-to-run scheduler for one configuration.
type Factory func(cfg sched.Config) Runner

var registry = struct {
	sync.RWMutex
	m map[SchedulerName]Factory
}{m: map[SchedulerName]Factory{}}

// Register makes a scheduling policy available to Compile under the
// given name, replacing any previous registration. The four built-in
// policies self-register; external packages can add their own without
// touching core. Register panics on an empty name or nil factory.
func Register(name SchedulerName, f Factory) {
	if name == "" {
		panic("core: Register with empty scheduler name")
	}
	if f == nil {
		panic("core: Register with nil factory for " + string(name))
	}
	registry.Lock()
	defer registry.Unlock()
	registry.m[name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name SchedulerName) (Factory, bool) {
	registry.RLock()
	defer registry.RUnlock()
	f, ok := registry.m[name]
	return f, ok
}

// Schedulers lists every registered policy name: the paper's policy
// (SchedSlack) first, the rest in sorted order.
func Schedulers() []SchedulerName {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]SchedulerName, 0, len(registry.m))
	for n := range registry.m {
		if n != SchedSlack {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	if _, ok := registry.m[SchedSlack]; ok {
		names = append([]SchedulerName{SchedSlack}, names...)
	}
	return names
}

func init() {
	Register(SchedSlack, func(cfg sched.Config) Runner { return sched.Slack(cfg) })
	Register(SchedSlackUni, func(cfg sched.Config) Runner { return sched.SlackUnidirectional(cfg) })
	Register(SchedCydrome, func(cfg sched.Config) Runner { return sched.Cydrome(cfg) })
	Register(SchedList, func(cfg sched.Config) Runner { return sched.List(cfg) })
	Register(SchedExact, func(cfg sched.Config) Runner { return exact.New(cfg) })
}
