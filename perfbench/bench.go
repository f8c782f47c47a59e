package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/sched"
	"repro/internal/schedcheck"
	"repro/internal/server"
	"repro/internal/wire"
)

var workloadNames = []string{"schedule-corpus", "kernel-corpus", "serve-miss", "serve-hit"}

func knownWorkload(name string) bool { return slices.Contains(workloadNames, name) }

// bench is the set-up state of one workload.
type bench struct {
	opt   options
	loops []*loopgen.Loop
	// order is one pass's dispatch order (indexes into loops).
	order []int
	// verify marks the items whose kernels the check executes.
	verify []bool
	// timed holds the outputs of the timed ops (corpus workloads).
	timed []slot

	// Serve workloads: the request body of every loop as lsms -emit
	// json writes it, its client-side content hash, the first body
	// served for it, and the server under test.
	bodies      [][]byte
	hashes      []string
	served      []bodySlot
	srv         *server.Server
	cacheSize   int
	wantCache   string
	non200      atomic.Int64
	setupFailed int64
}

// rounds is how many times a run sets the workload up and measures it;
// setup_s and the timing metrics are medians over the rounds.
const rounds = 7

// verifyKernels is how many seeded kernel-corpus loops the check
// executes against the interpreter.
const verifyKernels = 48

// defaultCacheEntries is lsmsd's default memory-tier bound.
const defaultCacheEntries = 1024

// serverDeadline is lsmsd's default per-request scheduling deadline; the
// traced replay schedules under the same budget as the handler.
const serverDeadline = 30 * time.Second

func (b *bench) serve() bool { return b.opt.workload == "serve-miss" || b.opt.workload == "serve-hit" }

func (b *bench) codegen() bool { return b.opt.workload == "kernel-corpus" }

// setup builds the corpus and everything the workload needs before its
// first timed op: for the serve workloads the wire encoding of every
// loop and the server, and for serve-hit a warm memory tier.
func setup(opt options) (*bench, error) {
	suite, err := loopgen.Build(loopgen.Options{Size: opt.size, Seed: opt.corpusSeed})
	if err != nil {
		return nil, fmt.Errorf("building corpus: %w", err)
	}
	b := &bench{opt: opt, loops: suite.Loops}
	n := len(b.loops)
	rng := rand.New(rand.NewSource(opt.seed))
	b.order = rng.Perm(n)
	b.verify = make([]bool, n)
	for _, i := range rng.Perm(n)[:min(verifyKernels, n)] {
		b.verify[i] = true
	}
	if !b.serve() {
		// Loops of equal size keep their seeded order.
		b.order = b.largestFirst()
		b.timed = make([]slot, n)
		return b, nil
	}

	b.bodies = make([][]byte, n)
	b.hashes = make([]string, n)
	b.served = make([]bodySlot, n)
	for i, l := range b.loops {
		req, err := wire.NewRequest(l.CL.Loop, string(core.SchedSlack), wire.OptionsFrom(sched.Config{}, false))
		if err != nil {
			return nil, fmt.Errorf("encoding %s: %w", l.Name, err)
		}
		if b.bodies[i], err = req.Canonical(); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", l.Name, err)
		}
		if b.hashes[i], err = req.Hash(); err != nil {
			return nil, fmt.Errorf("hashing %s: %w", l.Name, err)
		}
	}
	// serve-miss cycles the 1,525 keys through lsmsd's default 1,024-entry
	// memory tier (half the keys for a corpus that small), so every
	// request misses; serve-hit holds them all.
	b.cacheSize, b.wantCache = defaultCacheEntries, "miss"
	if n <= defaultCacheEntries {
		b.cacheSize = max(n/2, 1)
	}
	if opt.workload == "serve-hit" {
		b.cacheSize = 2 * n
	}
	if b.srv, err = b.newServer(""); err != nil {
		return nil, err
	}
	if opt.workload == "serve-hit" {
		warm := passes(opt.workers, b.order, 0, b.serveOp(b.srv.Handler(), "miss"))
		b.setupFailed = warm.failed
		b.wantCache = "hit"
	}
	return b, nil
}

func (b *bench) newServer(traceDir string) (*server.Server, error) {
	srv, err := server.New(server.Config{
		Workers:      b.opt.workers,
		CacheEntries: b.cacheSize,
		TraceDir:     traceDir,
	})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	return srv, nil
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
}

// op returns the workload's timed operation.
func (b *bench) op() func(w, item int) bool {
	if b.serve() {
		return b.serveOp(b.srv.Handler(), b.wantCache)
	}
	return b.compileOp()
}

// compileOp compiles one corpus loop into a per-worker reused result,
// the way the lsms CLI and the bench sweep do.
func (b *bench) compileOp() func(w, item int) bool {
	dst := make([]core.Compiled, b.opt.workers)
	opt := core.Options{Scheduler: core.SchedSlack, SkipCodegen: !b.codegen()}
	return func(w, item int) bool {
		c := &dst[w]
		if err := core.CompileInto(context.Background(), c, b.loops[item].CL.Loop, opt); err != nil || !c.OK() {
			return false
		}
		out := outcome{ok: true, ii: c.Result.Schedule.II, mii: c.Result.Bounds.MII, maxLive: c.RR.MaxLive}
		out.times = timesHash(c.Result.Schedule.Time)
		if c.Kernel != nil {
			out.nrr = c.Kernel.NRR
		}
		return b.timed[item].record(out)
	}
}

// serveOp posts one loop's request body to the handler and checks the
// response: status 200, the expected cache state, and the same bytes as
// the first response for that loop.
func (b *bench) serveOp(h http.Handler, cache string) func(w, item int) bool {
	sinks := make([]sink, b.opt.workers)
	for i := range sinks {
		sinks[i].h = http.Header{}
	}
	return func(w, item int) bool {
		s := &sinks[w]
		s.reset()
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/v1/compile", bytes.NewReader(b.bodies[item]))
		if err != nil {
			return false
		}
		h.ServeHTTP(s, req)
		if s.status != http.StatusOK {
			b.non200.Add(1)
		}
		return s.status == http.StatusOK && s.h.Get("X-Lsmsd-Cache") == cache && b.served[item].match(s.body.Bytes())
	}
}

// sink is a reusable in-process http.ResponseWriter.
type sink struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.body.Write(p)
}

func (s *sink) reset() {
	clear(s.h)
	s.status = 0
	s.body.Reset()
}

// outcome is what a compile produced for one loop: its schedule (II and
// a hash of the issue times), MII, the paper's MaxLive, and the rotating
// registers its kernel allocated (0 without code generation).
type outcome struct {
	ok                    bool
	ii, mii, maxLive, nrr int
	times                 uint64
}

func timesHash(times []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, t := range times {
		for i := range buf {
			buf[i] = byte(uint64(t) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// slot keeps the first outcome recorded for a loop; later passes must
// reproduce it exactly.
type slot struct {
	mu  sync.Mutex
	out outcome
}

func (s *slot) record(o outcome) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.out.ok {
		s.out = o
		return true
	}
	return s.out == o
}

// bodySlot keeps the first response body served for a loop; every later
// response for the loop must be byte-identical to it.
type bodySlot struct {
	mu   sync.Mutex
	body []byte
}

func (s *bodySlot) match(p []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.body == nil {
		s.body = bytes.Clone(p)
		return true
	}
	return bytes.Equal(s.body, p)
}

func (s *bodySlot) get() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.body
}

// library compiles every corpus loop afresh through the full pipeline,
// outside any timed region: the reference the workload's outputs are
// checked against. Every schedule must pass schedcheck, and on
// kernel-corpus the kernels of the seeded verify subset must execute
// like the sequential interpreter.
func (b *bench) library(log io.Writer) ([]outcome, int64) {
	lib := make([]outcome, len(b.loops))
	var mu sync.Mutex
	fail := func(format string, args ...any) bool {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(log, "perfbench: check: "+format+"\n", args...)
		return false
	}
	d := passes(b.opt.workers, b.largestFirst(), 0, func(_, item int) bool {
		cl := b.loops[item].CL
		c, err := core.CompileContext(context.Background(), cl.Loop, core.Options{Scheduler: core.SchedSlack})
		if err != nil || !c.OK() {
			return fail("%s: compile: %v", cl.Loop.Name, err)
		}
		s := c.Result.Schedule
		if v := schedcheck.Check(cl.Loop, s); len(v) > 0 {
			return fail("%s: illegal schedule: %v", cl.Loop.Name, v[0])
		}
		if b.codegen() && b.verify[item] {
			env, _, trips, err := cl.BuildEnv(binding(cl))
			if err != nil {
				return fail("%s: environment: %v", cl.Loop.Name, err)
			}
			if err := core.VerifyExecution(c, env, trips); err != nil {
				return fail("%s: %v", cl.Loop.Name, err)
			}
		}
		lib[item] = outcome{ok: true, ii: s.II, mii: c.Result.Bounds.MII, maxLive: c.RR.MaxLive, nrr: c.Kernel.NRR, times: timesHash(s.Time)}
		return true
	})
	return lib, d.failed
}

// binding is loopgen.AutoBinding with every integer array filled with
// valid 1-based subscripts. AutoBinding fills every array with reals,
// which read as subscript 0 from an integer array, so the sequential
// interpreter itself cannot run a gather such as the corpus's
// gatherscale (a(ind(i))).
func binding(cl *frontend.CompiledLoop) frontend.Binding {
	b := loopgen.AutoBinding(cl)
	fill := b.Fill
	b.Fill = func(array string, idx int) ir.Scalar {
		if s := cl.Unit.Syms[array]; s != nil && s.Type == frontend.TInteger {
			return ir.IntS(int64(1 + idx*7%16))
		}
		return fill(array, idx)
	}
	return b
}

// largestFirst returns the loops ordered by size, largest first, so a
// pass ends on small loops and no worker idles behind a long compile.
func (b *bench) largestFirst() []int {
	order := slices.Clone(b.order)
	slices.SortStableFunc(order, func(x, y int) int {
		return len(b.loops[y].CL.Loop.Ops) - len(b.loops[x].CL.Loop.Ops)
	})
	return order
}

// sums are the schedule-quality totals over the corpus.
type sums struct{ ii, maxLive, nrr int }

// check compares the workload's outputs with the library's and totals
// the quality metrics from the workload's own outputs. Corpus workloads
// compare the outcome their timed ops recorded; serve workloads decode
// each served body and compare its hash with the client's, and its II,
// MaxLive and issue times with the library's. Code generation runs only
// in kernel-corpus, so elsewhere the register totals come from the
// library's kernels for the same (checked equal) schedules.
func (b *bench) check(lib []outcome, log io.Writer) (sums, int64) {
	var s sums
	var failed int64
	fail := func(format string, args ...any) {
		failed++
		fmt.Fprintf(log, "perfbench: check: "+format+"\n", args...)
	}
	for i, ref := range lib {
		name := b.loops[i].CL.Loop.Name
		if !ref.ok {
			continue // counted by library
		}
		got := ref
		if b.serve() {
			var r wire.Response
			if err := json.Unmarshal(b.served[i].get(), &r); err != nil {
				fail("%s: response: %v", name, err)
				continue
			}
			if r.Hash != b.hashes[i] {
				fail("%s: served hash %s, client hash %s", name, r.Hash, b.hashes[i])
			}
			got = outcome{ok: r.OK, ii: r.II, mii: r.Bounds.MII, maxLive: r.MaxLive, nrr: ref.nrr, times: timesHash(r.Times)}
		} else {
			got = b.timed[i].out
			if !b.codegen() {
				got.nrr = ref.nrr
			}
		}
		if got != ref {
			fail("%s: workload output %+v, library %+v", name, got, ref)
		}
		s.ii += got.ii
		s.maxLive += got.maxLive
		s.nrr += got.nrr
	}
	return s, failed
}

// runBench runs the workload in rounds: each sets the workload up afresh,
// measures it for a share of --seconds, checks its outputs against the
// library and releases it. A set-up's state carries its own luck (in
// one process, serve-hit windows on fresh set-ups differed by up to
// 30%); the rounds take the median over several. setup_s is the
// median of the set-ups' CPU time (user+sys of the process), which
// contention from other processes on the host moves far less than wall
// time. Every timing metric is reported at the reference host's speed
// (probe.go), from a probe round before each set-up and each measured
// segment.
func runBench(opt options, log io.Writer) (*report, error) {
	rep := newReport(opt.workload)
	if opt.trace {
		b, err := setup(opt)
		if err != nil {
			return nil, err
		}
		defer b.close()
		rep.failed = b.setupFailed
		return rep, b.traced(rep, log)
	}

	var (
		lib                              []outcome
		s                                sums
		setups, rates, p50s, p99s, cpus  []float64
		heaps                            []float64
		probes                           []time.Duration
		mallocs, allocBytes, ops, steady int
		passes                           int
		elapsed                          time.Duration
	)
	share := time.Duration(opt.seconds * float64(time.Second) / rounds)
	for r := range rounds {
		// Every set-up begins from the same heap: the previous round's
		// state is released.
		runtime.GC()
		probes = append(probes, probeRound(opt.workers))
		c0 := cpuTime()
		b, err := setup(opt)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		rep.failed += b.setupFailed
		if r == 0 {
			var libFailed int64
			lib, libFailed = b.library(log)
			rep.failed += libFailed
		}
		w := measure(opt.workers, b.order, share, b.op())
		rs, checkFailed := b.check(lib, log)
		b.close()
		if r == 0 {
			s = rs
		}
		rep.failed += w.failed + checkFailed
		probes = append(probes, w.probes...)
		rates = append(rates, w.opsPerSec())
		p50s = append(p50s, us(w.quantile(0.50)))
		p99s = append(p99s, us(w.quantile(0.99)))
		cpus = append(cpus, us(w.cpuPerOp()))
		heaps = append(heaps, float64(w.peakHeap)/(1<<20))
		mallocs += int(w.mallocs)
		allocBytes += int(w.allocBytes)
		ops += w.ops()
		steady += w.steadyOps()
		passes += w.passes()
		elapsed += w.elapsed
	}
	rep.attempted = int64(ops)

	speed := hostSpeed(probes)
	rate, p50, p99, cpu, setupCPU := median(rates), median(p50s), median(p99s), median(cpus), median(setups)
	n := float64(ops)
	rep.set("ops_per_s", "1/s", rate/speed)
	rep.set("latency_p50_us", "us", p50*speed)
	rep.set("latency_p99_us", "us", p99*speed)
	rep.set("cpu_us_per_op", "us", cpu*speed)
	rep.set("allocs_per_op", "count", float64(mallocs)/n)
	rep.set("alloc_bytes_per_op", "B", float64(allocBytes)/n)
	rep.set("peak_heap_mib", "MiB", median(heaps))
	rep.set("setup_s", "s", setupCPU*speed)
	rep.set("ok_frac", "frac", max(0, 1-float64(rep.failed)/n))
	rep.set("sum_ii_cycles", "cycles", float64(s.ii))
	rep.set("sum_maxlive_regs", "regs", float64(s.maxLive))
	rep.set("sum_rr_alloc_regs", "regs", float64(s.nrr))
	rep.note("%d rounds, each a fresh set-up and at least %v of whole passes over %d loops: %d ops in %d passes in %.3fs, %d workers",
		rounds, share, opt.size, ops, passes, elapsed.Seconds(), opt.workers)
	rep.note("ops_per_s, cpu_us_per_op and the latency quantiles are medians over the rounds of each round's steady passes (at least %.0f%% of its best pass's CPU time per wall second; %d ops together)",
		100*steadyShare, steady)
	rep.note("per-round throughput as measured, sorted: %.1f", rates)
	rep.note("setup_s is the median CPU time of %d set-ups: %v", len(setups), setups)
	rep.note("host speed %.4f of the reference (median of %d probe rounds); as measured: ops_per_s %.1f, latency_p50_us %.3f, latency_p99_us %.3f, cpu_us_per_op %.3f, setup_s %.6f",
		speed, len(probes), rate, p50, p99, cpu, setupCPU)
	return rep, nil
}

func (b *bench) loopOf(item int) *ir.Loop { return b.loops[item].CL.Loop }
