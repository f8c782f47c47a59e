// Command benchdiff compares the head of a benchmark trajectory against
// its last committed record and fails on regression — the CI tripwire
// that keeps the per-compile hot path from quietly re-growing the
// allocations the arena work removed.
//
// Usage:
//
//	benchdiff [-history BENCH_history.jsonl] [-head FILE]
//	          [-ns 0.10] [-bytes 0.10] [-ns-exact 1.0]
//
// With only -history, the last record is the head and the one before it
// the baseline. With -head, the head comes from the last record of that
// file (CI measures into a temp file) and the baseline is the last
// record of -history whose (size, seed, machine) match — records at a
// different workload are incomparable and skipped.
//
// Three regression classes, strictest first:
//
//   - Any effort-counter drift (ii_attempts, central_iters, placements,
//     forces, ejections, restarts) is a CORRECTNESS alarm: the counters
//     are deterministic schedule work at a fixed (size, seed), identical
//     across machines, so a drift means the scheduler computes something
//     different, not that the machine was slow.
//   - Any allocs/op increase fails: allocation counts are deterministic,
//     so there is no noise to tolerate.
//   - ns/op (and B/op) may regress up to their thresholds; CI machines
//     are heterogeneous, so -ns is deliberately loose there. The exact
//     backend's benchmarks ("…/exact") use the separate, much looser
//     -ns-exact ns/op threshold: a branch-and-bound search's wall
//     clock swings with memory pressure far more than the heuristic
//     hot path does, while its effort counters and allocs/op stay
//     deterministic and keep their strict checks.
//
// Exit status: 0 clean, 1 regression, 2 usage or I/O trouble.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	history := flag.String("history", "BENCH_history.jsonl", "committed trajectory file (the baseline)")
	headFile := flag.String("head", "", "JSONL file whose last record is the head measurement (default: last record of -history)")
	nsTol := flag.Float64("ns", 0.10, "tolerated fractional ns/op regression (0.10 = +10%)")
	bTol := flag.Float64("bytes", 0.10, "tolerated fractional B/op regression")
	nsExactTol := flag.Float64("ns-exact", 1.0, "tolerated fractional ns/op regression for the exact backend's benchmarks")
	flag.Parse()

	hist, err := bench.ReadHistory(*history)
	if err != nil {
		fatalf("reading %s: %v", *history, err)
	}

	var head *bench.HistoryRecord
	if *headFile != "" {
		hs, err := bench.ReadHistory(*headFile)
		if err != nil {
			fatalf("reading %s: %v", *headFile, err)
		}
		if len(hs) == 0 {
			fatalf("%s holds no records", *headFile)
		}
		head = hs[len(hs)-1]
	} else {
		if len(hist) < 2 {
			fatalf("%s holds %d record(s); need two to diff (or pass -head)", *history, len(hist))
		}
		head = hist[len(hist)-1]
		hist = hist[:len(hist)-1]
	}

	base := baselineFor(hist, head)
	if base == nil {
		fatalf("no comparable baseline in %s for size=%d seed=%d machine=%s",
			*history, head.Size, head.Seed, orPaper(head.Machine))
	}

	fmt.Printf("baseline: %s %s (%s)\nhead:     %s %s (%s)\n\n",
		base.SHA, base.Date, orDash(base.Note), head.SHA, head.Date, orDash(head.Note))
	regressions := diff(os.Stdout, base, head, *nsTol, *bTol, *nsExactTol)
	if regressions > 0 {
		fmt.Printf("\nbenchdiff: %d regression(s)\n", regressions)
		os.Exit(1)
	}
	fmt.Println("\nbenchdiff: clean")
}

// baselineFor picks the most recent record measuring the same workload
// as the head; records at other sizes/seeds are not comparable, and
// records from different machines never are — a target with other unit
// mixes or latencies does different schedule work, so neither its
// effort counters nor its per-compile costs can baseline this head's.
// An empty machine is the paper machine (records predate the field).
func baselineFor(hist []*bench.HistoryRecord, head *bench.HistoryRecord) *bench.HistoryRecord {
	for i := len(hist) - 1; i >= 0; i-- {
		r := hist[i]
		if r.Size == head.Size && r.Seed == head.Seed && orPaper(r.Machine) == orPaper(head.Machine) {
			return r
		}
	}
	return nil
}

// orPaper canonicalizes the historical empty machine field.
func orPaper(m string) string {
	if m == "" {
		return "cydra"
	}
	return m
}

// diff prints one row per benchmark and returns the regression count.
func diff(w *os.File, base, head *bench.HistoryRecord, nsTol, bTol, nsExactTol float64) int {
	baseBy := map[string]bench.BenchRecord{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	fmt.Fprintf(w, "%-30s %14s %14s %12s   %s\n", "benchmark", "ns/op", "B/op", "allocs/op", "verdict")
	bad := 0
	for _, h := range head.Benchmarks {
		b, ok := baseBy[h.Name]
		if !ok {
			fmt.Fprintf(w, "%-30s %44s   new (no baseline)\n", h.Name, "")
			continue
		}
		tol := nsTol
		if strings.HasSuffix(h.Name, "/exact") {
			tol = nsExactTol
		}
		verdict := "ok"
		if msg := counterDrift(b, h); msg != "" {
			verdict = "COUNTER DRIFT: " + msg
			bad++
		} else if h.AllocsPerOp > b.AllocsPerOp {
			verdict = fmt.Sprintf("ALLOC REGRESSION: %.1f -> %.1f allocs/op", b.AllocsPerOp, h.AllocsPerOp)
			bad++
		} else if b.NsPerOp > 0 && h.NsPerOp > b.NsPerOp*(1+tol) {
			verdict = fmt.Sprintf("NS REGRESSION: %+.1f%% ns/op (tolerance %.0f%%)",
				100*(h.NsPerOp/b.NsPerOp-1), 100*tol)
			bad++
		} else if b.BytesPerOp > 0 && h.BytesPerOp > b.BytesPerOp*(1+bTol) {
			verdict = fmt.Sprintf("BYTES REGRESSION: %+.1f%% B/op (tolerance %.0f%%)",
				100*(h.BytesPerOp/b.BytesPerOp-1), 100*bTol)
			bad++
		}
		fmt.Fprintf(w, "%-30s %6.0f -> %5.0f %6.0f -> %5.0f %5.1f -> %4.1f   %s\n",
			h.Name, b.NsPerOp, h.NsPerOp, b.BytesPerOp, h.BytesPerOp, b.AllocsPerOp, h.AllocsPerOp, verdict)
	}
	for _, b := range base.Benchmarks {
		if _, ok := has(head.Benchmarks, b.Name); !ok {
			fmt.Fprintf(w, "%-30s %44s   MISSING from head\n", b.Name, "")
			bad++
		}
	}
	return bad
}

// counterDrift reports the first deterministic effort counter that
// moved, or "" when all match.
func counterDrift(b, h bench.BenchRecord) string {
	type c struct {
		name       string
		base, head int64
	}
	for _, x := range []c{
		{"ii_attempts", b.IIAttempts, h.IIAttempts},
		{"central_iters", b.CentralIters, h.CentralIters},
		{"placements", b.Placements, h.Placements},
		{"forces", b.Forces, h.Forces},
		{"ejections", b.Ejections, h.Ejections},
		{"restarts", b.Restarts, h.Restarts},
	} {
		if x.base != x.head {
			return fmt.Sprintf("%s %d -> %d", x.name, x.base, x.head)
		}
	}
	return ""
}

func has(recs []bench.BenchRecord, name string) (bench.BenchRecord, bool) {
	for _, r := range recs {
		if r.Name == name {
			return r, true
		}
	}
	return bench.BenchRecord{}, false
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}
