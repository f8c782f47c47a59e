package regalloc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/machine"
	"repro/internal/sched"
)

func strategies() []Strategy { return []Strategy{FirstFit, EndFit, BestFit} }
func orders() []Order        { return []Order{StartTime, Adjacency} }

// The paper's naive allocation of the sample loop (Figure 3) uses six
// rotating registers for x and y; the optimal uses four. Our allocator
// works on the full value set, but for the two-value core at the paper's
// placement it must land in [4, 6].
func TestSampleCoreAllocation(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0], s.Time[1] = 0, 1
	ranges := lifetime.Ranges(l, s, ir.RR)
	for _, strat := range strategies() {
		for _, ord := range orders() {
			a := Allocate(ranges, 2, strat, ord)
			if err := Verify(ranges, 2, a); err != nil {
				t.Errorf("%v/%v: %v", strat, ord, err)
			}
			if a.N < 4 || a.N > 6 {
				t.Errorf("%v/%v: N = %d, want 4..6 (paper: naive 6, optimal 4)", strat, ord, a.N)
			}
		}
	}
}

// Every strategy must produce verifiably sound allocations on scheduled
// fixture loops, within a small delta of MaxLive — the Rau et al. result
// the paper relies on (footnote 4: wands-only end-fit with adjacency
// ordering never needed more than MaxLive+1).
func TestFixtureAllocationsNearMaxLive(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		res := new(sched.Result)
		err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), l, res)
		if err != nil || !res.OK() {
			t.Fatalf("%s: scheduling failed", l.Name)
		}
		ranges := lifetime.Ranges(l, res.Schedule, ir.RR)
		maxlive := LowerBound(ranges, res.Schedule.II)
		for _, strat := range strategies() {
			for _, ord := range orders() {
				a := Allocate(ranges, res.Schedule.II, strat, ord)
				if err := Verify(ranges, res.Schedule.II, a); err != nil {
					t.Errorf("%s %v/%v: %v", l.Name, strat, ord, err)
				}
				// The primary allocator (first-fit, start-time order,
				// used by the code generator) must stay within the +5
				// delta Rau et al. report for their heuristics; the
				// alternative strategies are only compared, not relied
				// on, and the benchmark harness reports their deltas.
				if strat == FirstFit && ord == StartTime && a.N > maxlive+5 {
					t.Errorf("%s %v/%v: N = %d, MaxLive-bound = %d (delta > 5)",
						l.Name, strat, ord, a.N, maxlive)
				}
			}
		}
	}
}

// Property: on random interval sets the greedy allocation always
// verifies, and N never exceeds the trivial bound (one register per
// value instance in flight).
func TestRandomAllocationsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 80; trial++ {
		ii := 1 + rng.Intn(8)
		nv := 1 + rng.Intn(10)
		ranges := make([]lifetime.Range, nv)
		generous := 0
		for i := range ranges {
			start := rng.Intn(3 * ii)
			length := 1 + rng.Intn(5*ii)
			ranges[i] = lifetime.Range{Val: ir.ValueID(i), Start: start, End: start + length}
			// Each already-placed value can forbid at most span_v +
			// span_w + 2 residues against the next one, so twice the
			// total span plus a couple per value always suffices.
			generous += 2*((length+ii-1)/ii) + 2
		}
		strat := strategies()[rng.Intn(3)]
		ord := orders()[rng.Intn(2)]
		a := Allocate(ranges, ii, strat, ord)
		if err := Verify(ranges, ii, a); err != nil {
			t.Fatalf("trial %d (%v/%v): %v", trial, strat, ord, err)
		}
		if a.N > generous {
			t.Fatalf("trial %d (%v/%v): N = %d exceeds generous bound %d", trial, strat, ord, a.N, generous)
		}
		if a.N < LowerBound(ranges, ii) {
			t.Fatalf("trial %d: N = %d below lower bound", trial, a.N)
		}
	}
}

// Self-overlap: a single value living longer than N·II cannot fit; the
// allocator must grow the file to ⌈len/II⌉.
func TestLongLifetimeSpansRegisters(t *testing.T) {
	ranges := []lifetime.Range{{Val: 0, Start: 0, End: 47}}
	a := Allocate(ranges, 10, FirstFit, StartTime)
	if a.N != 5 {
		t.Errorf("N = %d, want ⌈47/10⌉ = 5", a.N)
	}
	if err := Verify(ranges, 10, a); err != nil {
		t.Error(err)
	}
}

// Verify must reject a deliberately broken allocation.
func TestVerifyCatchesCollision(t *testing.T) {
	ranges := []lifetime.Range{
		{Val: 0, Start: 0, End: 4},
		{Val: 1, Start: 0, End: 4},
	}
	bad := Allocation{N: 1, Offset: map[ir.ValueID]int{0: 0, 1: 0}}
	if err := Verify(ranges, 4, bad); err == nil {
		t.Error("two identical lifetimes in one register must collide")
	}
}

func TestZeroValues(t *testing.T) {
	a := Allocate(nil, 4, FirstFit, StartTime)
	if a.N != 0 {
		t.Errorf("empty allocation should use 0 registers, got %d", a.N)
	}
	if err := Verify(nil, 4, a); err != nil {
		t.Error(err)
	}
}
