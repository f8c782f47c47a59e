package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/loopgen"
	"repro/internal/regalloc"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/wire"
)

// Span names: one per call into a layer's public function, plus the
// per-op root ("op") and the group of codegen's replayed parts.
const (
	spanOp        = "op"
	spanHandler   = "server.handler"
	spanDecode    = "wire.decode"
	spanNormalize = "wire.normalize"
	spanHash      = "wire.hash"
	spanGet       = "store.get"
	spanSchedule  = "core.schedule"
	spanEncode    = "wire.encode"
	spanPut       = "store.put"
	spanGenerate  = "codegen.generate"
	spanParts     = "codegen.parts"
	spanRanges    = "lifetime.ranges"
	spanAllocate  = "regalloc.allocate"
	spanVerify    = "regalloc.verify"
)

// span is one timed call of the traced run. Spans of one op share req;
// parent indexes the recording worker's spans (-1 for the root).
type span struct {
	name       string
	start, end time.Duration // since the run's epoch
	parent     int32
	req        int32
}

// tracer is one worker's traced-run state: its spans, the reusable
// buffers its replay calls take, and the counters it adds up.
type tracer struct {
	epoch time.Time
	spans []span
	seq   int32
	c     core.Compiled
	dec   wire.Scratch

	st                  sched.Stats
	schedules, firstII  int
	sumII, sumMII       int
	cells               int64
	regs, bound         int
	reqBytes, respBytes int
	// schedNs and genNs are per-loop time totals, for the per-loop rows.
	schedNs, genNs []time.Duration
	schedN, genN   []int
}

func (t *tracer) begin(name string, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, req: t.seq})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = time.Since(t.epoch) }

func (t *tracer) dur(id int32) time.Duration { return t.spans[id].end - t.spans[id].start }

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// root opens the span of a new op.
func (t *tracer) root() int32 {
	t.seq++
	return t.begin(spanOp, -1)
}

// scheduled adds one successful schedule to the counters.
func (t *tracer) scheduled(item int, l *ir.Loop, res *sched.Result, d time.Duration) {
	st := res.Stats
	addStats(&t.st, st)
	t.schedules++
	if st.IIAttempts == 1 {
		t.firstII++
	}
	t.sumII += res.Schedule.II
	t.sumMII += res.Bounds.MII
	n := int64(len(l.Ops) + 2)
	t.cells += n * n * int64(st.IIAttempts)
	t.schedNs[item] += d
	t.schedN[item]++
}

func (b *bench) newTracers() []*tracer {
	epoch := time.Now()
	ts := make([]*tracer, b.opt.workers)
	n := len(b.loops)
	for i := range ts {
		ts[i] = &tracer{
			epoch: epoch, spans: make([]span, 0, 1<<15),
			schedNs: make([]time.Duration, n), schedN: make([]int, n),
			genNs: make([]time.Duration, n), genN: make([]int, n),
		}
	}
	return ts
}

// tracedCompileOp replays compileOp through the layers' public
// functions: core.CompileInto with SkipCodegen, then (kernel-corpus)
// codegen.Generate, then codegen's parts again on their own —
// lifetime.Ranges, regalloc.Allocate, regalloc.Verify on the same
// schedule — so codegen's self time is Generate minus its parts.
func (b *bench) tracedCompileOp(ts []*tracer) func(w, item int) bool {
	opt := core.Options{Scheduler: core.SchedSlack, SkipCodegen: true}
	return func(w, item int) bool {
		t := ts[w]
		l := b.loopOf(item)
		root := t.root()
		defer t.end(root)
		sp := t.begin(spanSchedule, root)
		err := core.CompileInto(context.Background(), &t.c, l, opt)
		t.end(sp)
		if err != nil || !t.c.OK() {
			return false
		}
		s := t.c.Result.Schedule
		t.scheduled(item, l, t.c.Result, t.dur(sp))
		out := outcome{ok: true, ii: s.II, mii: t.c.Result.Bounds.MII, maxLive: t.c.RR.MaxLive, times: timesHash(s.Time)}
		if b.codegen() {
			g := t.begin(spanGenerate, root)
			k, err := codegen.Generate(l, s)
			t.end(g)
			if err != nil {
				return false
			}
			t.genNs[item] += t.dur(g)
			t.genN[item]++
			out.nrr = k.NRR
			if n := t.replayCodegen(root, l, s); n != k.NRR {
				return false
			}
		}
		return b.timed[item].record(out)
	}
}

// replayCodegen makes codegen.Generate's calls into lifetime and
// regalloc again, under their own spans, and returns the RR file size.
func (t *tracer) replayCodegen(root int32, l *ir.Loop, s *ir.Schedule) int {
	parts := t.begin(spanParts, root)
	defer t.end(parts)
	sp := t.begin(spanRanges, parts)
	rr := lifetime.Ranges(l, s, ir.RR)
	icr := lifetime.Ranges(l, s, ir.ICR)
	t.end(sp)
	// Live-out values stay allocated to the iteration's makespan, as in
	// codegen.Generate.
	makespan := s.Makespan(l)
	for _, ranges := range [][]lifetime.Range{rr, icr} {
		for i := range ranges {
			if l.Value(ranges[i].Val).LiveOut && ranges[i].End < makespan {
				ranges[i].End = makespan
			}
		}
	}
	sp = t.begin(spanAllocate, parts)
	a := regalloc.Allocate(rr, s.II, regalloc.FirstFit, regalloc.StartTime)
	ai := regalloc.Allocate(icr, s.II, regalloc.FirstFit, regalloc.StartTime)
	t.end(sp)
	sp = t.begin(spanVerify, parts)
	err := regalloc.Verify(rr, s.II, a)
	if err == nil {
		err = regalloc.Verify(icr, s.II, ai)
	}
	t.end(sp)
	if err != nil {
		return -1
	}
	t.regs += a.N
	t.bound += regalloc.LowerBound(rr, s.II)
	return a.N
}

// tracedServeOp sends the request through the real handler under one
// span, then replays the handler's layer calls on the same body against
// a private store — decode, normalize, hash, store get, and on a miss
// schedule, encode and store put — so the server's own cache state is
// untouched. The replayed response must be the bytes the server sent.
func (b *bench) tracedServeOp(ts []*tracer, priv *store.Tiered) func(w, item int) bool {
	serve := b.serveOp(b.srv.Handler(), b.wantCache)
	return func(w, item int) bool {
		t := ts[w]
		root := t.root()
		defer t.end(root)
		sp := t.begin(spanHandler, root)
		ok := serve(w, item)
		t.end(sp)

		body := b.bodies[item]
		sp = t.begin(spanDecode, root)
		req, err := t.dec.DecodeRequest(body)
		t.end(sp)
		if err != nil {
			return false
		}
		sp = t.begin(spanNormalize, root)
		norm, loop, err := req.Normalize()
		t.end(sp)
		if err != nil {
			return false
		}
		sp = t.begin(spanHash, root)
		hash, err := norm.Hash()
		t.end(sp)
		if err != nil {
			return false
		}
		sp = t.begin(spanGet, root)
		rec, _, hit := priv.GetTier(hash)
		t.end(sp)
		resp := rec.Body
		if !hit {
			cfg := norm.Options.SchedConfig()
			cfg.Budget.Deadline = serverDeadline
			sp = t.begin(spanSchedule, root)
			err := core.CompileInto(context.Background(), &t.c, loop, core.Options{
				Scheduler: core.SchedulerName(norm.Scheduler), Config: cfg,
				SkipCodegen: true, Degrade: norm.Options.Degrade,
			})
			t.end(sp)
			if err != nil || !t.c.OK() {
				return false
			}
			t.scheduled(item, loop, t.c.Result, t.dur(sp))
			sp = t.begin(spanEncode, root)
			resp, err = json.Marshal(responseOf(norm, loop, hash, &t.c))
			t.end(sp)
			if err != nil {
				return false
			}
			sp = t.begin(spanPut, root)
			priv.Put(hash, store.Record{Status: http.StatusOK, Machine: norm.Machine, Body: resp})
			t.end(sp)
		}
		t.reqBytes += len(body)
		t.respBytes += len(resp)
		return ok && bytes.Equal(resp, b.served[item].get())
	}
}

// responseOf builds the success body lsmsd sends for a compiled loop.
func responseOf(norm *wire.Request, l *ir.Loop, hash string, c *core.Compiled) *wire.Response {
	res, s := c.Result, c.Result.Schedule
	name := norm.Scheduler
	if name == "" {
		name = string(core.SchedSlack)
	}
	return &wire.Response{
		Hash: hash, Loop: l.Name, Machine: norm.Machine, Scheduler: name,
		OK: true, Degraded: c.Degraded,
		Bounds: wire.Bounds{ResMII: res.Bounds.ResMII, RecMII: res.Bounds.RecMII, MII: res.Bounds.MII},
		II:     s.II, Length: s.Length(), Stages: s.Stages(), Times: s.Time,
		MaxLive: c.RR.MaxLive, MinAvg: c.MinAvg, ICR: c.ICR, GPRs: c.GPRs,
		Effort: wire.EffortOf(res.Stats),
	}
}

// traced is the --trace 1 run: an untraced window, a traced window of
// the same passes, the serve-miss exporter comparison, and the
// frontend and allocation probes, then the same correctness check as
// the untraced run. It reports the per-layer metrics.
func (b *bench) traced(rep *report, log io.Writer) error {
	total := time.Duration(b.opt.seconds * float64(time.Second))
	var st0 store.Stats
	if b.serve() {
		st0 = b.memStats()
	}
	b.non200.Store(0)
	w := measure(b.opt.workers, b.order, total*3/10, b.op())
	var hitRatio float64
	if b.serve() {
		st := b.memStats()
		if n := (st.Hits - st0.Hits) + (st.Misses - st0.Misses); n > 0 {
			hitRatio = float64(st.Hits-st0.Hits) / float64(n)
		}
	}
	non200 := b.non200.Load()

	ts := b.newTracers()
	var op func(w, item int) bool
	if b.serve() {
		priv := store.NewTiered(store.NewMemory(b.cacheSize))
		defer priv.Close()
		if b.opt.workload == "serve-hit" {
			for i := range b.loops {
				priv.Put(b.hashes[i], store.Record{Status: http.StatusOK, Machine: b.loopOf(i).Mach.Name, Body: b.served[i].get()})
			}
		}
		op = b.tracedServeOp(ts, priv)
	} else {
		op = b.tracedCompileOp(ts)
	}
	tw := passes(b.opt.workers, b.order, total*3/10, op)

	var expFrac, expSpread float64
	var expFailed int64
	var expOps int
	if b.opt.workload == "serve-miss" {
		var err error
		expFrac, expSpread, expOps, expFailed, err = b.exportOverhead(total/20, 3, log)
		if err != nil {
			return err
		}
	}
	fcUs, tokPerS, err := frontendCost(b.loops)
	if err != nil {
		return err
	}
	decAllocs, genAllocs := b.allocProbes()

	lib, libFailed := b.library(log)
	_, checkFailed := b.check(lib, log)
	rep.attempted = int64(w.ops() + tw.ops() + expOps)
	rep.failed += w.failed + tw.failed + expFailed + libFailed + checkFailed

	// Per-op layer times: each span's self time (its duration minus its
	// children's), summed by name over the traced window.
	self := map[string]time.Duration{}
	var tot tracer
	for _, t := range ts {
		for i, d := range t.selfTimes() {
			self[t.spans[i].name] += d
		}
		tot.add(t)
	}
	ops := float64(tw.ops())
	per := func(name string) float64 { return us(self[name]) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	replayed := 0.0
	for _, n := range []string{spanDecode, spanNormalize, spanHash, spanGet, spanSchedule, spanEncode, spanPut} {
		replayed += per(n)
	}
	schedules := float64(max(tot.schedules, 1))

	rep.set("wire.decode_us", "us", per(spanDecode))
	rep.set("wire.decode_allocs", "count", decAllocs)
	rep.set("wire.request_bytes", "B", float64(tot.reqBytes)/ops)
	rep.set("wire.normalize_us", "us", per(spanNormalize))
	rep.set("wire.hash_us", "us", per(spanHash))
	rep.set("wire.encode_us", "us", per(spanEncode))
	rep.set("wire.response_bytes", "B", float64(tot.respBytes)/ops)
	rep.set("store.get_us", "us", per(spanGet))
	rep.set("store.put_us", "us", per(spanPut))
	rep.set("store.hit_ratio", "frac", hitRatio)
	rep.set("server.handler_us", "us", per(spanHandler))
	residual := 0.0
	if b.serve() {
		residual = per(spanHandler) - replayed
	}
	rep.set("server.residual_us", "us", residual)
	rep.set("server.non200", "count", float64(non200)/float64(w.ops()))
	rep.set("core.schedule_us", "us", per(spanSchedule))
	rep.set("sched.mindist_us", "us", us(tot.st.MinDistTime)/ops)
	rep.set("sched.central_us", "us", us(tot.st.CentralTime)/ops)
	rep.set("sched.ii_attempts", "count", float64(tot.st.IIAttempts)/ops)
	rep.set("sched.central_iters", "count", float64(tot.st.CentralIters)/ops)
	rep.set("sched.placements", "count", float64(tot.st.Placements)/ops)
	rep.set("sched.forces", "count", float64(tot.st.Forces)/ops)
	rep.set("sched.ejections", "count", float64(tot.st.Ejections)/ops)
	rep.set("sched.restarts", "count", float64(tot.st.Restarts)/ops)
	rep.set("mindist.cells", "cells", float64(tot.cells)/ops)
	rep.set("sched.first_ii_ratio", "frac", float64(tot.firstII)/schedules)
	rep.set("sched.ii_over_mii", "ratio", ratio(float64(tot.sumII), float64(tot.sumMII)))
	rep.set("lifetime.ranges_us", "us", per(spanRanges))
	rep.set("regalloc.allocate_us", "us", per(spanAllocate))
	rep.set("regalloc.verify_us", "us", per(spanVerify))
	rep.set("regalloc.regs_over_bound", "ratio", ratio(float64(tot.regs), float64(tot.bound)))
	rep.set("codegen.generate_us", "us", per(spanGenerate))
	codegenSelf := 0.0
	if b.codegen() {
		codegenSelf = per(spanGenerate) - per(spanRanges) - per(spanAllocate) - per(spanVerify)
	}
	rep.set("codegen.self_us", "us", codegenSelf)
	rep.set("codegen.allocs", "count", genAllocs)
	rep.set("frontend.compile_us", "us", fcUs)
	rep.set("frontend.tokens_per_s", "1/s", tokPerS)
	rep.set("gc.cpu_frac", "frac", ratio(w.gcCPU, w.totalCPU))
	rep.set("gc.cycles", "count/kop", 1000*float64(w.gcCycles)/float64(w.ops()))
	rep.set("obs.export_overhead_frac", "frac", expFrac)
	rep.set("obs.export_overhead_spread", "frac", expSpread)
	// The trace's own cost: recording the traced window's spans, per op,
	// as a share of a worker's time per untraced op. The replayed layer
	// calls are the trace's method, not its overhead, and are left out.
	spansPerOp := float64(spanCount(ts)) / ops
	rep.set("trace.overhead_frac", "frac", spansPerOp*spanCost()*w.opsPerSec()/float64(b.opt.workers))

	rep.note("untraced window: %d ops, %.1f ops/s; traced window: %d ops, %.1f ops/s, %d spans",
		w.ops(), w.opsPerSec(), tw.ops(), tw.opsPerSec(), spanCount(ts))
	if b.serve() {
		rep.note("server.handler_us %.2f = replayed layer self times %.2f + server.residual_us %.2f",
			per(spanHandler), replayed, residual)
	}
	return b.writeTrace(ts, lib)
}

func addStats(a *sched.Stats, b sched.Stats) {
	a.IIAttempts += b.IIAttempts
	a.CentralIters += b.CentralIters
	a.Placements += b.Placements
	a.Forces += b.Forces
	a.Ejections += b.Ejections
	a.Restarts += b.Restarts
	a.MinDistTime += b.MinDistTime
	a.CentralTime += b.CentralTime
}

// add folds o's counters into t.
func (t *tracer) add(o *tracer) {
	addStats(&t.st, o.st)
	t.schedules += o.schedules
	t.firstII += o.firstII
	t.sumII += o.sumII
	t.sumMII += o.sumMII
	t.cells += o.cells
	t.regs += o.regs
	t.bound += o.bound
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
}

func spanCount(ts []*tracer) int {
	n := 0
	for _, t := range ts {
		n += len(t.spans)
	}
	return n
}

// memStats reads the server's memory-tier hit and miss counters.
func (b *bench) memStats() store.Stats {
	if r, ok := b.srv.Store().Tiers()[0].(store.StatsReporter); ok {
		return r.Stats()
	}
	return store.Stats{}
}

// spanCost returns the mean time in seconds recording one span takes (a
// begin and an end on a tracer sized like a worker's), timed over many
// spans.
func spanCost() float64 {
	const n = 1 << 16
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<15)}
	t0 := time.Now()
	root := t.root()
	for range n {
		t.end(t.begin(spanSchedule, root))
	}
	return time.Since(t0).Seconds() / n
}

// exportOverhead runs serve-miss on fresh servers with the trace
// exporter off and on (spooling every sampled trace to a directory),
// in pairs that alternate which side goes first, and returns the median
// and quartile spread of the per-pair throughput loss 1 − on/off.
func (b *bench) exportOverhead(seg time.Duration, pairs int, log io.Writer) (frac, spread float64, ops int, failed int64, err error) {
	dir, err := filepath.Abs(filepath.Join(b.opt.out, "spool"))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	rate := func(traceDir string) (float64, error) {
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return 0, err
			}
		}
		srv, err := b.newServer(traceDir)
		if err != nil {
			return 0, err
		}
		d := passes(b.opt.workers, b.order, seg, b.serveOp(srv.Handler(), "miss"))
		// Close drains the exporter, so its backlog does not spill into
		// the next segment.
		srv.Close()
		ops += d.ops()
		failed += d.failed
		return d.opsPerSec(), nil
	}
	var losses []float64
	for p := range pairs {
		var off, on float64
		if p%2 == 0 {
			if off, err = rate(""); err == nil {
				on, err = rate(dir)
			}
		} else {
			if on, err = rate(dir); err == nil {
				off, err = rate("")
			}
		}
		if err != nil {
			return 0, 0, 0, 0, err
		}
		losses = append(losses, 1-on/off)
		fmt.Fprintf(log, "perfbench: exporter pair %d: off %.1f ops/s, on %.1f ops/s\n", p, off, on)
	}
	return median(slices.Clone(losses)), quartileSpread(losses), ops, failed, nil
}

// frontendCost lexes and compiles every distinct corpus source once and
// returns the mean compile time per source and the token rate of
// frontend.Compile.
func frontendCost(loops []*loopgen.Loop) (float64, float64, error) {
	seen := map[string]bool{}
	var tokens int
	var d time.Duration
	n := 0
	for _, l := range loops {
		if seen[l.Source] {
			continue
		}
		seen[l.Source] = true
		toks, err := frontend.Lex(l.Source)
		if err != nil {
			return 0, 0, fmt.Errorf("lexing %s: %w", l.Name, err)
		}
		tokens += len(toks)
		t0 := time.Now()
		if _, _, err := frontend.Compile(l.Source, l.CL.Loop.Mach); err != nil {
			return 0, 0, fmt.Errorf("compiling %s: %w", l.Name, err)
		}
		d += time.Since(t0)
		n++
	}
	return us(d) / float64(n), float64(tokens) / d.Seconds(), nil
}

// allocProbes counts heap allocations per call of the decode (serve
// workloads) and code-generation (kernel-corpus) layers on a seeded
// sample, one call at a time with the workers idle.
func (b *bench) allocProbes() (decode, generate float64) {
	rng := rand.New(rand.NewSource(b.opt.seed))
	sample := rng.Perm(len(b.loops))[:min(32, len(b.loops))]
	allocs := func(fn func(item int)) float64 {
		fn(sample[0]) // warm reused buffers
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, i := range sample {
			fn(i)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(len(sample))
	}
	if b.serve() {
		var dec wire.Scratch
		decode = allocs(func(i int) { dec.DecodeRequest(b.bodies[i]) })
	}
	if b.codegen() {
		scheds := make([]*ir.Schedule, len(b.loops))
		for _, i := range sample {
			if c, err := core.Compile(b.loopOf(i), core.Options{SkipCodegen: true}); err == nil && c.OK() {
				scheds[i] = c.Result.Schedule
			}
		}
		generate = allocs(func(i int) {
			if scheds[i] != nil {
				codegen.Generate(b.loopOf(i), scheds[i])
			}
		})
	}
	return decode, generate
}

// writeTrace writes the traced window's spans (one JSON object per
// line, with self time) and one row per loop to the output directory.
func (b *bench) writeTrace(ts []*tracer, lib []outcome) error {
	if err := os.MkdirAll(b.opt.out, 0o755); err != nil {
		return err
	}
	prefix := filepath.Join(b.opt.out, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed))
	err := writeFile(prefix+"-spans.jsonl", func(w *bufio.Writer) {
		for wi, t := range ts {
			for i, self := range t.selfTimes() {
				s := t.spans[i]
				fmt.Fprintf(w, `{"worker":%d,"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
					wi, i, s.parent, s.req, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), self.Nanoseconds())
			}
		}
	})
	if err != nil {
		return err
	}
	return writeFile(prefix+"-loops.tsv", func(w *bufio.Writer) {
		fmt.Fprintln(w, "loop\tops\tmii\tii\tmaxlive\tnrr\tschedule_us\tcodegen_us")
		for i, l := range b.loops {
			var sn, gn time.Duration
			var sc, gc int
			for _, t := range ts {
				sn, sc = sn+t.schedNs[i], sc+t.schedN[i]
				gn, gc = gn+t.genNs[i], gc+t.genN[i]
			}
			o := lib[i]
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\n", l.CL.Loop.Name, len(l.CL.Loop.Ops),
				o.mii, o.ii, o.maxLive, o.nrr, meanUs(sn, sc), meanUs(gn, gc))
		}
	})
}

func meanUs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

func writeFile(path string, fill func(*bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fill(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
