package viz

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
)

func scheduled(t *testing.T) (*ir.Loop, *ir.Schedule) {
	t.Helper()
	l := fixture.Sample(machine.Cydra())
	res := new(sched.Result)
	err := sched.Slack(sched.Config{}).ScheduleInto(context.Background(), l, res)
	if err != nil || !res.OK() {
		t.Fatal("scheduling failed")
	}
	return l, res.Schedule
}

func TestMRTRendersEveryOp(t *testing.T) {
	l, s := scheduled(t)
	out := MRT(l, s)
	if !strings.Contains(out, "Adder.0") || !strings.Contains(out, "MemPort.0") {
		t.Errorf("missing unit rows:\n%s", out)
	}
	// Both adds share the single adder: its row must be fully occupied
	// at II=2 (the adder is the critical resource).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Adder.0") {
			cells := strings.TrimPrefix(line, "Adder.0")
			if strings.Contains(cells, ".") {
				t.Errorf("adder should be saturated at II=2:\n%s", out)
			}
		}
	}
}

func TestGanttBarsMatchLatencies(t *testing.T) {
	l, s := scheduled(t)
	out := Gantt(l, s)
	if !strings.Contains(out, "fadd") || !strings.Contains(out, "brtop") {
		t.Errorf("missing ops:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "store") {
			if n := strings.Count(line, "="); n != 1 {
				t.Errorf("store bar should span its 1-cycle latency, got %d:\n%s", n, line)
			}
		}
	}
}

func TestLifetimesShowsLiveVector(t *testing.T) {
	l := fixture.SampleCore(machine.Cydra())
	s := ir.NewSchedule(2, len(l.Ops))
	s.Time[0], s.Time[1] = 0, 1
	out := Lifetimes(l, s)
	// The paper's hand-worked numbers (Figure 4).
	if !strings.Contains(out, "[  0,  5)") || !strings.Contains(out, "[  1,  4)") {
		t.Errorf("expected the paper's lifetimes [0,5) and [1,4):\n%s", out)
	}
	if !strings.Contains(out, "[4 4]") || !strings.Contains(out, "MaxLive 4") {
		t.Errorf("expected LiveVector ⟨4,4⟩:\n%s", out)
	}
}
