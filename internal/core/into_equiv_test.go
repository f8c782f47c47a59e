package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/wire"
)

// TestCompileIntoEquivalence is the correctness bar of the arena pool
// and the caller-owned-buffer entry point together. Over the generator
// corpus and every registered policy, a dirty compile must be
// bit-identical to a clean one — same schedule, same pressure numbers,
// same effort counters, same serialized wire result — and must classify
// errors identically. The dirty side runs on pooled scratch (each
// arena ratcheted and dirtied by a different loop) and writes into ONE
// Compiled recycled across all loops, so its Result, Schedule.Time and
// MinDist buffers arrive dirty and wrongly sized at every call. The
// clean side runs on a fresh Arena into a fresh CompileContext result.
func TestCompileIntoEquivalence(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 36
	}
	testDirtyCleanEquivalence(t, loopgen.Options{Size: size, Seed: 424}, true)
}

// TestPooledEquivalence isolates the arena pool: the dirty side runs on
// pooled scratch as above but writes into a fresh Compiled per loop, so
// a divergence here is the pool's fault, not the recycled buffer's.
func TestPooledEquivalence(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 36
	}
	testDirtyCleanEquivalence(t, loopgen.Options{Size: size, Seed: 424}, false)
}

// TestCompileIntoEquivalenceCGRA runs the same differential on the
// cgra4 target: its FU-kind table is a different size and shape than
// the paper family's, so pooled arenas handed from a cydra compile to a
// cgra4 compile (and vice versa, as the pool is shared) must resize
// their per-kind scratch rather than reuse stale widths.
func TestCompileIntoEquivalenceCGRA(t *testing.T) {
	size := 60
	if testing.Short() {
		size = 24
	}
	m, ok := machine.Lookup("cgra4")
	if !ok {
		t.Fatal("cgra4 is not registered")
	}
	testDirtyCleanEquivalence(t, loopgen.Options{Size: size, Seed: 424, Mach: m}, true)
}

// testDirtyCleanEquivalence compares pooled-scratch compiles against
// fresh-arena ones; recycleDst makes the dirty side also reuse one
// Compiled across the whole corpus.
func testDirtyCleanEquivalence(t *testing.T, opts loopgen.Options, recycleDst bool) {
	w, err := loopgen.Build(opts)
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	ctx := context.Background()
	for _, name := range Schedulers() {
		opt := Options{Scheduler: name, SkipCodegen: true}
		var buf Compiled // one buffer for the whole corpus — sizes vary per loop
		for _, wl := range w.Loops {
			if !recycleDst {
				buf = Compiled{}
			}
			derr := CompileInto(ctx, &buf, wl.CL.Loop, opt)
			clean := opt
			clean.Config.Arena = sched.NewArena()
			fresh, cerr := CompileContext(ctx, wl.CL.Loop, clean)
			clean.Config.Arena.Release()
			if c1, c2 := errClass(cerr), errClass(derr); c1 != c2 {
				t.Fatalf("%s/%s: error class diverges: clean %q (%v), dirty %q (%v)",
					name, wl.Name, c1, cerr, c2, derr)
			}
			if fresh == nil {
				if buf.Loop != nil {
					t.Fatalf("%s/%s: clean compile produced nothing but CompileInto left dst populated",
						name, wl.Name)
				}
				continue
			}
			if buf.Loop == nil {
				t.Fatalf("%s/%s: clean compile produced a result but CompileInto zeroed dst", name, wl.Name)
			}
			ch := compiledHash(t, name, wl.Name, fresh)
			dh := compiledHash(t, name, wl.Name, &buf)
			if ch != dh {
				t.Errorf("%s/%s: dirty result diverges from clean result: %s vs %s",
					name, wl.Name, dh, ch)
			}
		}
	}
}

// TestCompileIntoUnknownScheduler pins the zero-dst contract: a lookup
// failure must both return ErrUnknownScheduler and scrub whatever the
// previous compilation left in the buffer, so stale results cannot be
// mistaken for output.
func TestCompileIntoUnknownScheduler(t *testing.T) {
	w, err := loopgen.Build(loopgen.Options{Size: 4, Seed: 7})
	if err != nil {
		t.Fatalf("building workload: %v", err)
	}
	ctx := context.Background()
	var buf Compiled
	if err := CompileInto(ctx, &buf, w.Loops[0].CL.Loop, Options{SkipCodegen: true}); err != nil {
		t.Fatalf("priming compile: %v", err)
	}
	if buf.Loop == nil {
		t.Fatal("priming compile left dst empty")
	}
	err = CompileInto(ctx, &buf, w.Loops[0].CL.Loop, Options{Scheduler: "no-such-policy"})
	if !errors.Is(err, ErrUnknownScheduler) {
		t.Fatalf("want ErrUnknownScheduler, got %v", err)
	}
	if buf.Loop != nil || buf.Result != nil || buf.Kernel != nil {
		t.Fatalf("dst not zeroed after unknown scheduler: %+v", buf)
	}
}

// errClass buckets an error for cross-entry-point comparison without
// depending on message details (which carry timing-bearing stats).
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, sched.ErrInfeasible):
		return "infeasible"
	case errors.Is(err, sched.ErrBudgetExhausted):
		return "budget"
	case errors.Is(err, ErrUnknownScheduler):
		return "unknown-scheduler"
	default:
		return "other"
	}
}

// compiledHash hashes the serialized wire form of every deterministic
// output a server response carries: feasibility, II, the full
// schedule, the pressure and bound numbers, and the effort counters.
func compiledHash(t *testing.T, name SchedulerName, loopName string, c *Compiled) string {
	t.Helper()
	b := c.Result.Bounds
	resp := wire.Response{
		Loop:      loopName,
		Scheduler: string(name),
		OK:        c.OK(),
		Bounds:    wire.Bounds{ResMII: b.ResMII, RecMII: b.RecMII, MII: b.MII},
		Effort:    wire.EffortOf(c.Result.Stats),
	}
	if c.OK() {
		s := c.Result.Schedule
		resp.II = s.II
		resp.Length = s.Length()
		resp.Stages = s.Stages()
		resp.Times = s.Time
		resp.MaxLive = c.RR.MaxLive
		resp.MinAvg = c.MinAvg
		resp.ICR = c.ICR
		resp.GPRs = c.GPRs
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, loopName, err)
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(body))
}
