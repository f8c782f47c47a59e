// Per-compile hot-path benchmarks: one op is one core.Compile of one
// workload loop (round-robin over the corpus, scheduling + pressure, no
// codegen — the lsmsd serving shape). These are the benchmarks whose
// ns/op, B/op, and allocs/op feed BENCH_history.jsonl; run with
//
//	go test -bench 'BenchmarkCompile' -benchmem
//
// The NoPool variant runs the identical code path on a fresh arena per
// compile, so the pair quantifies exactly what arena pooling saves.
package repro

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// benchCompile runs one core.Compile per op; fresh gives every compile
// its own sched.NewArena instead of a pooled one.
func benchCompile(b *testing.B, fresh bool) {
	s := suite(b)
	for _, name := range core.Schedulers() {
		b.Run(string(name), func(b *testing.B) {
			opt := core.Options{Scheduler: name, SkipCodegen: true}
			loops := s.Loops
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fresh {
					opt.Config.Arena = sched.NewArena()
				}
				if _, err := core.Compile(loops[i%len(loops)].CL.Loop, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures one pooled compilation per op, per policy.
func BenchmarkCompile(b *testing.B) {
	benchCompile(b, false)
}

// BenchmarkCompileNoPool is BenchmarkCompile with the arena pool
// bypassed — the differential baseline for allocation accounting.
func BenchmarkCompileNoPool(b *testing.B) {
	benchCompile(b, true)
}

// BenchmarkCompileInto measures the caller-owned-buffer entry point:
// identical work to BenchmarkCompile, but one Compiled is recycled
// across ops (core.CompileInto), so the result objects — sched.Result,
// Schedule.Time, the MinDist clone — cost nothing after warm-up. What
// remains per op is the pipeline's allocation floor.
func BenchmarkCompileInto(b *testing.B) {
	s := suite(b)
	ctx := context.Background()
	for _, name := range core.Schedulers() {
		b.Run(string(name), func(b *testing.B) {
			opt := core.Options{Scheduler: name, SkipCodegen: true}
			loops := s.Loops
			var c core.Compiled
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := core.CompileInto(ctx, &c, loops[i%len(loops)].CL.Loop, opt)
				if err != nil && !errors.Is(err, sched.ErrInfeasible) {
					b.Fatal(err)
				}
			}
		})
	}
}
