package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/schedcheck"
)

// The exhaustive searcher must find MII schedules for the fixtures the
// slack scheduler handles, and its output must be legal.
func TestExhaustiveFindsFixtureSchedules(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		if len(l.Ops) > 12 {
			continue
		}
		res, err := schedule(Slack(Config{}), l)
		if err != nil || !res.OK() {
			t.Fatalf("%s: slack failed", l.Name)
		}
		s, err := FindAtII(l, res.Bounds.MII, 0, 2_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if s == nil {
			t.Errorf("%s: exhaustive search found nothing at MII %d though slack did", l.Name, res.Bounds.MII)
			continue
		}
		schedcheck.MustCheck(l, s)
	}
}

// Genuinely infeasible MII: a divider-saturated chain whose dependence
// spacing cannot tile the divider at MII within any horizon this short —
// the paper's "for some loops, the minimum feasible II is more than MII"
// (Section 3.1), witnessed by exhaustive search rather than asserted.
func TestExhaustiveConfirmsInfeasibleMII(t *testing.T) {
	m := machine.Cydra()
	l := ir.NewLoop("inf", m)
	a := l.NewValue("a", ir.RR, ir.Float)
	b := l.NewValue("b", ir.RR, ir.Float)
	c := l.NewValue("c", ir.RR, ir.Float)
	// Three divider ops with a latency-and-a-bit chain between the 2nd
	// and 3rd: div(17) → sqrt(21) → fadd(1) → div(17). ResMII = 55; the
	// exact tiling needs t_div2 ≡ t_sqrt+21 (mod 55) while dependences
	// force t_div2 ≥ t_sqrt+22, so II = 55 requires t_div2 = t_sqrt+76 —
	// and the 1-cycle fadd then misses every alignment (cf. lll22).
	l.NewOp(machine.FDiv, []ir.Operand{{Val: c.ID, Omega: 1}, {Val: c.ID, Omega: 1}}, a.ID)
	l.NewOp(machine.FSqrt, []ir.Operand{{Val: a.ID}}, b.ID)
	one := l.Const("one", ir.Float, ir.FloatS(1))
	mid := l.NewValue("mid", ir.RR, ir.Float)
	l.NewOp(machine.FAdd, []ir.Operand{{Val: b.ID}, {Val: one.ID}}, mid.ID)
	l.NewOp(machine.FDiv, []ir.Operand{{Val: mid.ID}, {Val: one.ID}}, c.ID)
	l.MustFinalize()

	// MII = 55 (3 divider reservations of 17+21+17).
	s55, err := FindAtII(l, 55, 400, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s55 != nil {
		// The recurrence c (ω=1) through the whole chain actually forces
		// RecMII = 56 > 55, so a 55-cycle schedule would be a bug.
		t.Fatalf("II=55 should be infeasible, found:\n%s", s55)
	}
	res, err := schedule(Slack(Config{}), l)
	if err != nil || !res.OK() {
		t.Fatal("slack failed entirely")
	}
	if res.Schedule.II <= 55 {
		t.Fatalf("slack achieved II=%d below the infeasibility witness", res.Schedule.II)
	}
	// And the exhaustive search agrees something at slack's II exists.
	s2, err := FindAtII(l, res.Schedule.II, 0, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s2 == nil {
		t.Errorf("exhaustive search could not confirm feasibility at II=%d", res.Schedule.II)
	}
}

// On random tiny loops: wherever exhaustive search proves MII feasible,
// the slack scheduler should almost always achieve it (the paper: 96%).
func TestSlackNearOptimalOnTinyLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	codes := []machine.Opcode{machine.FAdd, machine.FMul, machine.Load, machine.FSub}
	feasible, matched := 0, 0
	for trial := 0; trial < 120; trial++ {
		m := machine.Cydra()
		l := ir.NewLoop(fmt.Sprintf("tiny%d", trial), m)
		n := 3 + rng.Intn(6)
		vals := make([]*ir.Value, n)
		for i := range vals {
			vals[i] = l.NewValue(fmt.Sprintf("v%d", i), ir.RR, ir.Float)
		}
		for i := 0; i < n; i++ {
			var args []ir.Operand
			if i > 0 {
				args = append(args, ir.Operand{Val: vals[rng.Intn(i)].ID})
			} else {
				args = append(args, ir.Operand{Val: vals[n-1].ID, Omega: 1})
			}
			if rng.Intn(2) == 0 {
				j := rng.Intn(n)
				w := 0
				if j >= i {
					w = 1 + rng.Intn(2)
				}
				args = append(args, ir.Operand{Val: vals[j].ID, Omega: w})
			} else {
				args = append(args, args[0])
			}
			code := codes[rng.Intn(len(codes))]
			if code == machine.Load {
				args = args[:1]
			}
			l.NewOp(code, args, vals[i].ID)
		}
		l.MustFinalize()

		res, err := schedule(Slack(Config{}), l)
		if err != nil || !res.OK() {
			t.Fatalf("trial %d: slack failed", trial)
		}
		opt, err := FindAtII(l, res.Bounds.MII, 0, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if opt == nil {
			continue
		}
		schedcheck.MustCheck(l, opt)
		feasible++
		if res.Schedule.II == res.Bounds.MII {
			matched++
		}
	}
	if feasible < 60 {
		t.Fatalf("too few exhaustively-feasible trials: %d", feasible)
	}
	if pct := 100 * float64(matched) / float64(feasible); pct < 95 {
		t.Errorf("slack matched a provably-feasible MII on only %.1f%% of tiny loops", pct)
	}
}
