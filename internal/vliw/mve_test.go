package vliw

import (
	"context"
	"testing"

	"repro/internal/codegen"
	"repro/internal/fixture"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/semantics"
)

// The MVE path must agree with both the interpreter and the rotating-
// register simulation on every runnable fixture — three independent
// executions of every schedule.
func TestMVEMatchesInterpreterAndRotating(t *testing.T) {
	m := machine.Cydra()
	for _, r := range fixture.Runnables(m) {
		res := new(sched.Result)
		err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), r.Loop, res)
		if err != nil || !res.OK() {
			t.Fatalf("%s: scheduling failed", r.Loop.Name)
		}
		rot, err := codegen.Generate(r.Loop, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		mve, err := codegen.GenerateMVE(r.Loop, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		want, err := interp.Run(r.Loop, r.Env, r.Trips)
		if err != nil {
			t.Fatal(err)
		}
		gotRot, err := Run(rot, r.Env, r.Trips, Config{Paranoid: true})
		if err != nil {
			t.Fatalf("%s rotating: %v", r.Loop.Name, err)
		}
		gotMVE, err := RunMVE(mve, r.Env, r.Trips, Config{Paranoid: true})
		if err != nil {
			t.Fatalf("%s mve: %v", r.Loop.Name, err)
		}
		for i := range want.Mem {
			if !semantics.Equal(want.Mem[i], gotMVE.Mem[i]) {
				t.Fatalf("%s: mem[%d]: interp %+v mve %+v", r.Loop.Name, i, want.Mem[i], gotMVE.Mem[i])
			}
			if !semantics.Equal(gotRot.Mem[i], gotMVE.Mem[i]) {
				t.Fatalf("%s: mem[%d]: rotating %+v mve %+v", r.Loop.Name, i, gotRot.Mem[i], gotMVE.Mem[i])
			}
		}
		if want.Executed != gotMVE.Executed {
			t.Errorf("%s: executed %d vs %d", r.Loop.Name, gotMVE.Executed, want.Executed)
		}
		for v, w := range want.LiveOut {
			if g := gotMVE.LiveOut[v]; !semantics.Equal(w, g) {
				t.Errorf("%s: live-out %s: interp %+v mve %+v", r.Loop.Name, r.Loop.Value(v).Name, w, g)
			}
		}
	}
}

// Unroll factors: Figure 1's sample loop has values living > II (x and
// y need 3 registers each at II=2), so MVE must unroll; the unroll is
// the lcm of the per-value register counts.
func TestMVEUnrollFactor(t *testing.T) {
	m := machine.Cydra()
	l := fixture.Sample(m)
	res := new(sched.Result)
	err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), l, res)
	if err != nil || !res.OK() {
		t.Fatal("scheduling failed")
	}
	k, err := codegen.GenerateMVE(l, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if k.Unroll < 2 {
		t.Errorf("unroll = %d; lifetimes exceeding II must force expansion", k.Unroll)
	}
	if k.TotalRegs < 4 {
		t.Errorf("static registers = %d, want at least the paper's optimal rotating count 4", k.TotalRegs)
	}
	// Code expansion is real: U·II words vs II for the rotating schema.
	if k.Unroll*k.II <= k.II {
		t.Error("MVE should expand the code")
	}
}

// Short trip counts through the MVE path (wrap-around of the unroll
// copies interacts with ramp-down squashing).
func TestMVEShortTrips(t *testing.T) {
	m := machine.Cydra()
	r := fixture.RunnableSample(m)
	res := new(sched.Result)
	err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), r.Loop, res)
	if err != nil || !res.OK() {
		t.Fatal("scheduling failed")
	}
	k, err := codegen.GenerateMVE(r.Loop, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	for trips := 0; trips <= k.Stages+k.Unroll+1; trips++ {
		want, err := interp.Run(r.Loop, r.Env, trips)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunMVE(k, r.Env, trips, Config{Paranoid: true})
		if err != nil {
			t.Fatalf("trips=%d: %v", trips, err)
		}
		for i := range want.Mem {
			if !semantics.Equal(want.Mem[i], got.Mem[i]) {
				t.Fatalf("trips=%d: mem[%d] differs", trips, i)
			}
		}
	}
}
