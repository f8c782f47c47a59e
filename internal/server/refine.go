package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/lifetime"
	"repro/internal/mindist"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wire"
)

// The refinement tier (Config.Refine): requests are answered
// immediately by the scheduler they asked for, and a small background
// worker pool keeps searching with the exact backend under a long
// budget. When the exact result strictly improves on the served one —
// lower II, or equal II with lower MaxLive — the store record is
// upgraded in place (disk first, then memory, see store.Tiered.Upgrade)
// so every subsequent hit serves the refined schedule, flagged with the
// X-Lsmsd-Refined response header. A key is enqueued once, on the cold
// compile that created its record; hits never re-enqueue, so an
// exhausted refinement (budget ran out without an improvement) leaves
// the record as-is permanently — by then the exact search has had a far
// larger budget than the synchronous compile, and retrying it on every
// hit would burn the background pool on proven-unimprovable keys.

// refineJob is one queued refinement: the request's resolved loop and
// structural options, and the served answer's (II, MaxLive) for the
// strict-improvement comparison.
type refineJob struct {
	hash      string
	reqID     string
	schedName string
	machine   string
	opts      wire.Options
	// loop is the normalized request's loop; Normalize built it fresh,
	// so the job owns it once the request's compile has returned.
	loop                *ir.Loop
	baseII, baseMaxLive int
	// link is the originating request's span context. The refinement runs
	// under a fresh TraceID — it outlives the request and belongs to no
	// caller — but its trace carries a span link back here, so a store
	// upgrade is attributable to the request that caused it.
	link obs.SpanContext
}

// refineQueue bounds the pending-refinement queue; a full queue drops
// new jobs (the served record stays valid, just unrefined).
const refineQueue = 256

// refiner is the background worker pool. Workers honor ctx — Close
// cancels it and the exact search's budget guard observes it within
// one check stride — and drain nothing on shutdown: queued jobs are
// abandoned, which is safe because refinement is a pure optimization
// of already-correct records.
type refiner struct {
	s      *Server
	jobs   chan refineJob
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newRefiner(s *Server) *refiner {
	r := &refiner{s: s, jobs: make(chan refineJob, refineQueue)}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for i := 0; i < s.cfg.RefineWorkers; i++ {
		r.wg.Add(1)
		go r.run()
	}
	return r
}

// enqueue offers a job without blocking the request path; a full queue
// drops the job (the record stays correct, just unrefined).
func (r *refiner) enqueue(job refineJob) bool {
	select {
	case r.jobs <- job:
		return true
	default:
		return false
	}
}

// close stops the workers and waits for the in-flight refinements to
// observe the cancellation. Called before the store closes, so an
// upgrade that already started either completes into a live store or
// is dropped by the closed tiers — never half-written (each tier's Put
// is atomic under its own lock).
func (r *refiner) close() {
	r.cancel()
	r.wg.Wait()
}

func (r *refiner) run() {
	defer r.wg.Done()
	for {
		select {
		case <-r.ctx.Done():
			return
		case job := <-r.jobs:
			r.process(job)
		}
	}
}

// process runs one refinement end to end: exact search,
// strict-improvement comparison, store upgrade. Every job leaves one
// `refine` trace in the flight recorder and bumps exactly one of the
// improved/unchanged/exhausted counters.
func (r *refiner) process(job refineJob) {
	s := r.s
	start := time.Now()
	s.m.refineStarted.Inc()
	loop := job.loop
	sctx := obs.NewSpanContext()
	sctx.Sampled = job.link.Sampled // inherit the originating verdict
	tr := newTrace(job.reqID, loop.Name, string(core.SchedExact), sctx, obs.SpanContext{}, job.link)
	sp := tr.Start("refine")

	outcome := "exhausted"
	defer func() {
		sp.End(outcome)
		s.finishTrace(tr, outcome, true)
		switch outcome {
		case "improved":
			s.m.refineImproved.Inc()
		case "unchanged":
			s.m.refineUnchanged.Inc()
		default:
			s.m.refineExhausted.Inc()
		}
		if s.logger != nil {
			s.logger.Info("refine",
				"request_id", job.reqID,
				"loop", loop.Name,
				"scheduler", job.schedName,
				"hash", job.hash,
				"outcome", outcome,
				"duration_ms", float64(time.Since(start).Microseconds())/1000,
			)
		}
	}()

	// The request's structural options (MaxII, StartII, increment mode)
	// still bind — a refined schedule must satisfy the same contract the
	// original answer did — but the synchronous deadline does not: the
	// whole point of the tier is searching under a longer budget.
	cfg := job.opts.SchedConfig()
	cfg.Budget.Deadline = s.cfg.RefineDeadline
	cfg.Budget.MaxCentralIters = s.cfg.RefineNodes
	cfg.Budget.MaxIIAttempts = 0
	out, err := exact.New(cfg).Search(r.ctx, loop)
	if err != nil || out == nil || out.Result == nil || !out.Result.OK() {
		if err != nil {
			tr.Err = err.Error()
		}
		return
	}
	res := out.Result
	eII, eML := res.Schedule.II, out.MaxLive
	sp.Int("base_ii", int64(job.baseII)).Int("base_maxlive", int64(job.baseMaxLive))
	sp.Int("ii", int64(eII)).Int("maxlive", int64(eML))
	if out.Proven {
		sp.Int("proven", 1)
	}
	if eII > job.baseII || (eII == job.baseII && eML >= job.baseMaxLive) {
		outcome = "unchanged"
		return
	}

	md := res.MinDist
	if md == nil || md.II != res.Schedule.II {
		md, err = mindist.Compute(loop, res.Schedule.II)
		if err != nil {
			tr.Err = err.Error()
			return
		}
	}
	resp := &wire.Response{
		Hash:      job.hash,
		Loop:      loop.Name,
		Machine:   job.machine,
		Scheduler: job.schedName,
		Refined:   true,
	}
	successBody(resp, res, eML, mindist.MinAvg(loop, md, ir.RR), lifetime.ICRUsage(loop, res.Schedule), loop.GPRCount())
	body, err := json.Marshal(resp)
	if err != nil {
		tr.Err = err.Error()
		return
	}
	if r.ctx.Err() != nil {
		return // shutting down: don't race the store teardown
	}
	s.store.Upgrade(job.hash, store.Record{
		Status:  http.StatusOK,
		Machine: job.machine,
		Body:    body,
		Refined: true,
	})
	outcome = "improved"
}
