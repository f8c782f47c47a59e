package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// invoke runs the command with args and decodes its last output line.
func invoke(t *testing.T, args ...string) printed {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("perfbench %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var p printed
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		t.Fatalf("perfbench %v: last line: %v", args, err)
	}
	if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d", args, p.Correct, p.Attempted, p.Failed)
	}
	return p
}

// declared reads the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	slices.Sort(names)
	return names
}

func names(p printed) []string {
	var out []string
	for n, m := range p.Metrics {
		out = append(out, n+" "+m.Unit)
	}
	slices.Sort(out)
	return out
}

// TestSmoke runs every workload, untraced and traced, on a small corpus
// at a second corpus seed, and checks that each prints exactly the
// metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			p := invoke(t, "--workload", w, "--seed", "3", "--corpus-seed", "7", "--size", "60",
				"--seconds", "0", "--trace", trace)
			want := e2e
			if trace == "1" {
				want = layers
			}
			if got := names(p); !slices.Equal(got, want) {
				t.Errorf("%s trace=%s: metrics %v, BENCHMARK.json declares %v", w, trace, got, want)
			}
			for n, m := range p.Metrics {
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want positive", w, n, m.Value)
				}
			}
		}
	}
}

// TestPaperCorpusDeterminism pins the schedule-quality totals of the
// paper corpus and checks that they and the scheduler's effort counters
// are identical across two runs and across one and two workers.
func TestPaperCorpusDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules and generates code for the full corpus six times")
	}
	pins := map[string]float64{"sum_ii_cycles": 12017, "sum_maxlive_regs": 24063, "sum_rr_alloc_regs": 26602}
	effort := []string{"sched.ii_attempts", "sched.central_iters", "sched.placements", "sched.forces",
		"sched.ejections", "sched.restarts", "mindist.cells", "sched.first_ii_ratio", "sched.ii_over_mii"}
	var first map[string]float64
	for _, workers := range []string{"2", "2", "1"} {
		common := []string{"--workload", "schedule-corpus", "--seed", "1993", "--seconds", "0", "--workers", workers}
		e2e := invoke(t, append(common, "--trace", "0")...)
		layers := invoke(t, append(common, "--trace", "1")...)
		got := map[string]float64{}
		for n, want := range pins {
			got[n] = e2e.Metrics[n].Value
			if got[n] != want {
				t.Errorf("workers=%s: %s = %v, want %v", workers, n, got[n], want)
			}
		}
		for _, n := range effort {
			got[n] = layers.Metrics[n].Value
		}
		if first == nil {
			first = got
			continue
		}
		for n, v := range got {
			if v != first[n] {
				t.Errorf("workers=%s: %s = %v, first run %v", workers, n, v, first[n])
			}
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) gives 2.75 and 8.25.
	var xs []float64
	for i := 1; i <= 10; i++ {
		xs = append(xs, float64(i))
	}
	if got := quartileSpread(xs); got != 5.5 {
		t.Errorf("quartileSpread(1..10) = %v, want 5.5", got)
	}
	if got := strconv.FormatFloat(median([]float64{3, 1, 2}), 'g', -1, 64); got != "2" {
		t.Errorf("median = %s, want 2", got)
	}
}
