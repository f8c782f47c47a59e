package codegen

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
)

func compile(t *testing.T, l *ir.Loop) *Kernel {
	t.Helper()
	res := new(sched.Result)
	err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), l, res)
	if err != nil || !res.OK() {
		t.Fatalf("%s: scheduling failed", l.Name)
	}
	k, err := Generate(l, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// Structural invariants of the kernel-only schema: every op lands in the
// word of its schedule offset, with its schedule stage; specifier
// arithmetic matches the derivation dst = r+σ, src = r+ω+σ (mod N).
func TestKernelStructure(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		res := new(sched.Result)
		err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), l, res)
		if err != nil || !res.OK() {
			t.Fatalf("%s: scheduling failed", l.Name)
		}
		s := res.Schedule
		k, err := Generate(l, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(k.Words) != s.II {
			t.Fatalf("%s: %d words, want II=%d", l.Name, len(k.Words), s.II)
		}
		count := 0
		for phi, word := range k.Words {
			for _, in := range word {
				count++
				if s.Offset(in.Op.ID) != phi {
					t.Errorf("%s: op%d in word %d, scheduled offset %d", l.Name, in.Op.ID, phi, s.Offset(in.Op.ID))
				}
				if s.Stage(in.Op.ID) != in.Stage {
					t.Errorf("%s: op%d stage mismatch", l.Name, in.Op.ID)
				}
				if in.Op.Result != ir.None && in.Dst == nil {
					t.Errorf("%s: op%d result lost", l.Name, in.Op.ID)
				}
				// Check specifier arithmetic against the allocation.
				if in.Dst != nil && in.Dst.File == ir.RR {
					want := mod(k.RR.Offset[in.Op.Result]+in.Stage, k.NRR)
					if in.Dst.Off != want {
						t.Errorf("%s: op%d dst spec %d, want %d", l.Name, in.Op.ID, in.Dst.Off, want)
					}
				}
				for j, sp := range in.Srcs {
					if sp.File != ir.RR {
						continue
					}
					a := in.Op.Args[j]
					want := mod(k.RR.Offset[a.Val]+a.Omega+in.Stage, k.NRR)
					if sp.Off != want {
						t.Errorf("%s: op%d src%d spec %d, want %d", l.Name, in.Op.ID, j, sp.Off, want)
					}
				}
			}
		}
		if count != len(l.Ops) {
			t.Errorf("%s: kernel holds %d ops, loop has %d", l.Name, count, len(l.Ops))
		}
	}
}

func TestIncompleteScheduleRejected(t *testing.T) {
	m := machine.Cydra()
	l := fixture.Sample(m)
	s := ir.NewSchedule(2, len(l.Ops))
	if _, err := Generate(l, s); err == nil {
		t.Error("incomplete schedule must be rejected")
	}
}

func TestPredicateSpecsResolved(t *testing.T) {
	m := machine.Cydra()
	k := compile(t, fixture.Conditional(m))
	preds := 0
	for _, word := range k.Words {
		for _, in := range word {
			if in.Pred != nil {
				preds++
				if in.Pred.File != ir.ICR {
					t.Errorf("guard of op%d resolved to %v, want ICR", in.Op.ID, in.Pred.File)
				}
			}
		}
	}
	if preds != 2 {
		t.Errorf("conditional fixture has 2 guarded ops, found %d", preds)
	}
	if k.NICR < 1 {
		t.Error("predicate value needs an ICR register")
	}
}

func TestStringRendering(t *testing.T) {
	m := machine.Cydra()
	k := compile(t, fixture.Sample(m))
	out := k.String()
	for _, want := range []string{"kernel sample", "II=2", "fadd", "RR["} {
		if !strings.Contains(out, want) {
			t.Errorf("kernel dump missing %q:\n%s", want, out)
		}
	}
}
