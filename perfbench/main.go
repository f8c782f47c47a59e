// Command perfbench is the repository benchmark. One invocation runs one
// closed-loop workload in-process over the paper corpus, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run) as the last line of
// standard output:
//
//	perfbench --workload serve-miss --seed 1 --seconds 10 --trace 0
//
// Workloads (README.md explains why each exists and which layers it
// moves):
//
//	schedule-corpus  core.CompileInto with SkipCodegen, slack scheduler
//	kernel-corpus    full core.CompileInto with code generation
//	serve-miss       lsmsd handler, memory tier smaller than the corpus
//	serve-hit        lsmsd handler, memory tier warmed with every key
//
// The corpus is loopgen's 1,525-loop paper corpus at --corpus-seed
// (default 1993). --seed picks the dispatch order of every pass and the
// kernels executed by the correctness check, so the same seed replays
// the same inputs in the same order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload   string
	seed       int64
	corpusSeed int64
	size       int
	seconds    float64
	trace      bool
	workers    int
	out        string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	fs.Int64Var(&opt.seed, "seed", 1, "seed of the dispatch order and of the executed-kernel subset")
	fs.Int64Var(&opt.corpusSeed, "corpus-seed", 1993, "loopgen seed of the corpus (1993 is the paper corpus)")
	fs.IntVar(&opt.size, "size", 1525, "corpus size in loops")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured time, shared by the rounds; each round ends on a whole pass over the corpus")
	fs.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a separate traced run")
	fs.IntVar(&opt.workers, "workers", 2, "closed-loop workers")
	fs.StringVar(&opt.out, "out", ".bench_build/perfbench-out", "directory for the traced run's spans and per-loop rows")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = traceFlag != 0
	if !knownWorkload(opt.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", opt.workload, workloadNames)
		return 2
	}
	if opt.workers < 1 || opt.size < 1 || opt.seconds < 0 {
		fmt.Fprintln(stderr, "perfbench: -workers and -size must be positive, -seconds non-negative")
		return 2
	}
	rep, err := runBench(opt, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run: the metrics in print order and the
// op accounting behind "attempted" and "failed".
type report struct {
	workload  string
	attempted int64
	failed    int64
	names     []string
	metrics   map[string]metric
	notes     []string // human-readable lines printed with the table
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the JSON object printed as the last line of standard output.
func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
}

// print writes the metrics as a table, one per line, with the notes.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s: attempted %d, failed %d (fail_frac %.6f)\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartileSpread returns the distance between the first and third
// quartiles of xs (exclusive method, as Python's statistics.quantiles).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return q(0.75) - q(0.25)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
