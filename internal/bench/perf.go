// Harness performance instrumentation: the full-suite scheduling sweep
// is the repository's compile-time hot path, and later PRs need a
// recorded trajectory to regress against. Perf times one sweep per
// policy and aggregates the Section 6 effort counters plus the
// MinDist/central-loop attribution; WriteJSON emits the machine-readable
// record (conventionally BENCH_sched.json at the repo root).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// PolicyPerf is one policy's full-suite scheduling cost.
type PolicyPerf struct {
	Policy       string  `json:"policy"`
	Loops        int     `json:"loops"`
	Failures     int     `json:"failures"`
	Errors       int     `json:"errors,omitempty"`   // per-loop Run.Err (budget, panic, internal)
	Degraded     int     `json:"degraded,omitempty"` // list-scheduler rescues (Suite.Degrade)
	WallMS       float64 `json:"wall_ms"`
	MinDistMS    float64 `json:"mindist_ms"` // of scheduling time: building MinDist tables
	CentralMS    float64 `json:"central_ms"` // of scheduling time: the central loop
	IIAttempts   int64   `json:"ii_attempts"`
	CentralIters int64   `json:"central_iters"`
	Placements   int64   `json:"placements"`
	Ejections    int64   `json:"ejections"`
}

// PerfReport is the machine-readable record of one benchmark sweep.
type PerfReport struct {
	Size       int          `json:"size"`
	Seed       int64        `json:"seed"`
	Parallel   int          `json:"parallel"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	WallMS     float64      `json:"wall_ms"` // whole sweep, all policies
	Policies   []PolicyPerf `json:"policies"`
}

// Perf schedules the whole workload once per policy, timing each sweep.
// Analyses shared across policies (Infos) are warmed outside the timed
// region; cached runs are discarded so every sweep is measured fresh.
func Perf(s *Suite) (*PerfReport, error) {
	if _, err := s.Infos(); err != nil {
		return nil, err
	}
	r := &PerfReport{
		Size:       s.Size(),
		Seed:       s.Seed,
		Parallel:   s.workers(s.Size()),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	sweepStart := time.Now()
	for _, name := range core.Schedulers() {
		delete(s.runs, name)
		start := time.Now()
		rs, err := s.Runs(name)
		if err != nil {
			return nil, err
		}
		p := PolicyPerf{
			Policy: string(name),
			Loops:  len(rs),
			WallMS: ms(time.Since(start)),
		}
		var mdt, cat time.Duration
		for _, run := range rs {
			if !run.OK {
				p.Failures++
			}
			if run.Err != nil {
				p.Errors++
			}
			if run.Degraded {
				p.Degraded++
			}
			mdt += run.Stats.MinDistTime
			cat += run.Stats.CentralTime
			p.IIAttempts += int64(run.Stats.IIAttempts)
			p.CentralIters += run.Stats.CentralIters
			p.Placements += run.Stats.Placements
			p.Ejections += run.Stats.Ejections
		}
		p.MinDistMS = ms(mdt)
		p.CentralMS = ms(cat)
		r.Policies = append(r.Policies, p)
	}
	r.WallMS = ms(time.Since(sweepStart))
	return r, nil
}

// ms converts a duration to milliseconds at microsecond precision.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// WriteJSON records the report at path.
func (r *PerfReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// PolicyMetrics is one policy's merged event-stream aggregates plus the
// per-loop outcome tallies of the sweep that produced them.
type PolicyMetrics struct {
	Policy   string `json:"policy"`
	Loops    int    `json:"loops"`
	Failures int    `json:"failures"`           // infeasible loops (OK=false, no error)
	Errors   int    `json:"errors,omitempty"`   // per-loop Run.Err (budget, panic, internal)
	Degraded int    `json:"degraded,omitempty"` // list-scheduler rescues

	// Events counts the typed event stream by wire name, Outcomes the
	// finished attempts by their AttemptOutcome name; Counters carries
	// the rest of the sched.Metrics aggregate. Both maps marshal with
	// sorted keys (encoding/json's map ordering), so the JSON record is
	// byte-deterministic.
	Events   map[string]int64 `json:"events"`
	Outcomes map[string]int64 `json:"attempt_outcomes"`
	Counters *sched.Metrics   `json:"counters"`
}

// MetricsReport is the machine-readable event-stream record of one
// sweep, conventionally written alongside BENCH_sched.json. Each
// policy's per-loop metrics are merged in loop order, so the report is
// byte-identical for serial and parallel sweeps.
type MetricsReport struct {
	Size     int             `json:"size"`
	Seed     int64           `json:"seed"`
	Parallel int             `json:"parallel"`
	Policies []PolicyMetrics `json:"policies"`
}

// CollectMetrics sweeps every registered policy with a per-loop
// sched.Metrics observer attached and folds each policy's streams
// deterministically. It enables Suite.Metrics and re-runs any cached
// sweeps so every run carries its aggregate.
func CollectMetrics(s *Suite) (*MetricsReport, error) {
	s.Metrics = true
	r := &MetricsReport{Size: s.Size(), Seed: s.Seed, Parallel: s.workers(s.Size())}
	for _, name := range core.Schedulers() {
		delete(s.runs, name)
		rs, err := s.Runs(name)
		if err != nil {
			return nil, err
		}
		m := MergeMetrics(rs)
		if m == nil {
			m = &sched.Metrics{}
		}
		p := PolicyMetrics{
			Policy:   string(name),
			Loops:    len(rs),
			Events:   m.EventCounts(),
			Outcomes: m.OutcomeCounts(),
			Counters: m,
		}
		for _, run := range rs {
			switch {
			case run.Err != nil:
				p.Errors++
			case !run.OK:
				p.Failures++
			}
			if run.Degraded {
				p.Degraded++
			}
		}
		r.Policies = append(r.Policies, p)
	}
	return r, nil
}

// WriteJSON records the metrics report at path.
func (r *MetricsReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// String renders the human-readable metrics summary.
func (r *MetricsReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Event-stream metrics — %d loops (seed %d), %d worker(s)\n", r.Size, r.Seed, r.Parallel)
	fmt.Fprintf(&b, "%-22s %10s %10s %12s %10s %8s %8s %9s\n",
		"policy", "attempts", "ok", "places", "ejects", "fails", "errors", "degraded")
	for _, p := range r.Policies {
		fmt.Fprintf(&b, "%-22s %10d %10d %12d %10d %8d %8d %9d\n",
			p.Policy, p.Counters.Attempts, p.Counters.AttemptsOK,
			p.Events[sched.EvPlace.String()], p.Events[sched.EvEject.String()],
			p.Failures, p.Errors, p.Degraded)
	}
	return b.String()
}

// String renders the human-readable summary.
func (r *PerfReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scheduling sweep — %d loops (seed %d), %d worker(s), GOMAXPROCS %d, total %.0f ms\n",
		r.Size, r.Seed, r.Parallel, r.GOMAXPROCS, r.WallMS)
	fmt.Fprintf(&b, "%-22s %9s %10s %10s %12s %12s %9s %6s\n",
		"policy", "wall ms", "mindist ms", "central ms", "central iters", "placements", "ejections", "fails")
	for _, p := range r.Policies {
		fmt.Fprintf(&b, "%-22s %9.0f %10.0f %10.0f %12d %12d %9d %6d\n",
			p.Policy, p.WallMS, p.MinDistMS, p.CentralMS, p.CentralIters, p.Placements, p.Ejections, p.Failures)
	}
	return b.String()
}
