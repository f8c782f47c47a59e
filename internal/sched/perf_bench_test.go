package sched

import (
	"testing"

	"repro/internal/loopgen"
	"repro/internal/machine"
)

// benchCorpus compiles the kernel corpus once per benchmark binary.
func benchCorpus(b *testing.B) []*loopgen.Loop {
	b.Helper()
	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		b.Fatal(err)
	}
	return ks
}

func benchScheduleKernels(b *testing.B, cfg Config) {
	ks := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, wl := range ks {
			res, err := schedule(Slack(cfg), wl.CL.Loop)
			if err != nil {
				b.Fatal(err)
			}
			_ = res.OK()
		}
	}
}

// BenchmarkScheduleKernels is the optimized pipeline: parametric
// MinDist reuse plus incremental Estart/Lstart maintenance.
func BenchmarkScheduleKernels(b *testing.B) {
	benchScheduleKernels(b, Config{})
}

// BenchmarkScheduleKernelsNoFastPaths recomputes MinDist and the bounds
// from scratch at every step — the pre-optimization baseline, kept as
// the denominator for the speedup trajectory.
func BenchmarkScheduleKernelsNoFastPaths(b *testing.B) {
	benchScheduleKernels(b, NoFastPaths(Config{}))
}

// BenchmarkScheduleKernelsIncrementByOne forces many II retries (the
// footnote-6 ablation), the regime where the parametric cache pays off
// most.
func BenchmarkScheduleKernelsIncrementByOne(b *testing.B) {
	benchScheduleKernels(b, Config{IncrementByOne: true})
}
