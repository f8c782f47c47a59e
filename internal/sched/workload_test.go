package sched_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/loopgen"
	"repro/internal/sched"
)

// TestFastPathsMatchLegacyAcrossWorkload is the acceptance differential:
// for every registered scheduler over a generated workload, the
// parametric MinDist + incremental bounds pipeline must produce
// identical IIs, MaxLive values and failure sets to the direct
// from-scratch paths.
func TestFastPathsMatchLegacyAcrossWorkload(t *testing.T) {
	size := 120
	if testing.Short() {
		size = 40
	}
	suite := func() *bench.Suite {
		s, err := bench.NewSuite(loopgen.Options{Size: size, Seed: 1993})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	fast, slow := suite(), suite()
	for _, name := range core.Schedulers() {
		slow.Configure(name, sched.NoFastPaths(sched.Config{}))
	}
	for _, name := range core.Schedulers() {
		rf, err := fast.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := slow.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rf {
			if rf[i].OK != rl[i].OK || rf[i].II != rl[i].II || rf[i].MaxLive != rl[i].MaxLive {
				t.Fatalf("%s/%s: fast OK=%v II=%d MaxLive=%d, direct OK=%v II=%d MaxLive=%d",
					name, rf[i].Info.Name, rf[i].OK, rf[i].II, rf[i].MaxLive,
					rl[i].OK, rl[i].II, rl[i].MaxLive)
			}
		}
	}
}
