package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestParallelSweepDeterministic builds the same workload twice and runs
// it sequentially and on a wide pool: the analyses and every per-loop
// run must be identical, order included.
func TestParallelSweepDeterministic(t *testing.T) {
	seq := suite(t, 120)
	seq.Parallel = 1
	par := suite(t, 120)
	par.Parallel = 8

	is, err := seq.Infos()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := par.Infos()
	if err != nil {
		t.Fatal(err)
	}
	if len(is) != len(ip) {
		t.Fatalf("info count %d vs %d", len(is), len(ip))
	}
	for i := range is {
		if is[i].Name != ip[i].Name || is[i].Bounds != ip[i].Bounds ||
			is[i].MinAvgAtMII != ip[i].MinAvgAtMII || is[i].Class != ip[i].Class {
			t.Fatalf("info %d differs: %+v vs %+v", i, is[i], ip[i])
		}
	}
	for _, name := range core.Schedulers() {
		rs, err := seq.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := par.Runs(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			if rs[i].OK != rp[i].OK || rs[i].II != rp[i].II ||
				rs[i].MaxLive != rp[i].MaxLive || rs[i].MinAvg != rp[i].MinAvg ||
				rs[i].ICR != rp[i].ICR {
				t.Fatalf("%s run %d (%s) differs: seq %+v, par %+v",
					name, i, rs[i].Info.Name, rs[i], rp[i])
			}
		}
	}
}

// TestPerfReport smoke-tests the JSON emitter: all policies present,
// counters populated, wall time attributed, file written.
func TestPerfReport(t *testing.T) {
	s := suite(t, 60)
	r, err := Perf(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Policies) != len(core.Schedulers()) {
		t.Fatalf("got %d policies, want %d", len(r.Policies), len(core.Schedulers()))
	}
	for _, p := range r.Policies {
		if p.Loops != s.Size() || p.Placements == 0 || p.CentralIters == 0 {
			t.Fatalf("%s: implausible counters %+v", p.Policy, p)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_sched.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back PerfReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Size != r.Size || len(back.Policies) != len(r.Policies) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, r)
	}
}
