package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// maxRate bounds the throughput the latency buffers are sized for
// before a run, so recording a latency does not allocate during it.
const maxRate = 40000

// lane is one worker's latency record: lat[i] is an op of pass pass[i].
type lane struct {
	lat  []time.Duration
	pass []int32
}

// newLanes sizes the workers' latency records for a run of minDur over
// n-item passes.
func newLanes(workers, n int, minDur time.Duration) []lane {
	size := 4*n + int(maxRate*minDur.Seconds())/workers
	lanes := make([]lane, workers)
	for w := range lanes {
		lanes[w] = lane{lat: make([]time.Duration, 0, size), pass: make([]int32, 0, size)}
	}
	return lanes
}

// passes dispatches order to workers closed-loop: each worker takes the
// next item as soon as its previous op returns, cycling through order
// pass after pass. A new pass starts only while less than minDur has
// elapsed, so the run always covers whole passes (every loop equally
// often) and at least one. op reports whether the item's output was
// correct. The result holds every op's latency, grouped by pass, and
// each pass's wall and CPU time.
func passes(workers int, order []int, minDur time.Duration, op func(w, item int) bool) dispatch {
	d := dispatch{n: len(order), lanes: newLanes(workers, len(order), minDur)}
	d.run(order, minDur, op)
	return d.group()
}

// run dispatches whole passes as passes does, recording into d's
// preallocated lanes after the passes d already holds; the caller
// groups the result by pass.
func (d *dispatch) run(order []int, minDur time.Duration, op func(w, item int) bool) {
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		marks   []mark
		wg      sync.WaitGroup
	)
	n := len(order)
	base := int32(len(d.wall))
	fails := make([]int64, len(d.lanes))
	start := time.Now()
	for w := range d.lanes {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := &d.lanes[w]
			for {
				mu.Lock()
				if !stopped && next%n == 0 {
					if next > 0 && time.Since(start) >= minDur {
						stopped = true
					} else {
						marks = append(marks, now())
					}
				}
				if stopped {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()
				t0 := time.Now()
				ok := op(w, order[k%n])
				l.lat = append(l.lat, time.Since(t0))
				l.pass = append(l.pass, base+int32(k/n))
				if !ok {
					fails[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	marks = append(marks, now())
	d.elapsed += time.Since(start)
	for p := 1; p < len(marks); p++ {
		d.wall = append(d.wall, marks[p].wall.Sub(marks[p-1].wall))
		d.cpu = append(d.cpu, marks[p].cpu-marks[p-1].cpu)
	}
	for _, f := range fails {
		d.failed += f
	}
}

// group sorts the lanes' latencies by pass.
func (d dispatch) group() dispatch {
	d.lat = make([][]time.Duration, len(d.wall))
	for p := range d.lat {
		d.lat[p] = make([]time.Duration, 0, d.n)
	}
	for _, l := range d.lanes {
		for i, lat := range l.lat {
			d.lat[l.pass[i]] = append(d.lat[l.pass[i]], lat)
		}
	}
	return d
}

// mark is a point in a run: wall clock and the process's CPU time.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dispatch is what passes observed: the lanes and each pass's wall and
// CPU time. Pass p ran from the dispatch of its first op to the dispatch
// of the next pass's first op (the last pass of a run: to the completion
// of every op); group fills in its ops' latencies lat[p].
type dispatch struct {
	elapsed time.Duration
	n       int
	lanes   []lane
	failed  int64
	wall    []time.Duration
	cpu     []time.Duration

	lat [][]time.Duration
}

func (d dispatch) passes() int { return len(d.lat) }

func (d dispatch) ops() int {
	n := 0
	for _, l := range d.lat {
		n += len(l)
	}
	return n
}

// steadyShare is how much of the best pass's CPU time per wall second
// a steady pass had at least.
const steadyShare = 0.95

// steady returns the passes in which the process had at least
// steadyShare of the CPU time per wall second of its best pass. On a
// shared virtual machine other tenants take CPU time from the process
// (steal) in bursts; the steady passes are the ones they did not
// disturb. A change to the program moves every pass, so it moves these
// too.
func (d dispatch) steady() []int {
	util := func(p int) float64 { return d.cpu[p].Seconds() / d.wall[p].Seconds() }
	best := 0.0
	for p := range d.lat {
		best = max(best, util(p))
	}
	var ps []int
	for p := range d.lat {
		if util(p) >= steadyShare*best {
			ps = append(ps, p)
		}
	}
	return ps
}

// steadyTotals returns the ops, wall time and CPU time of the steady
// passes together.
func (d dispatch) steadyTotals() (ops int, wall, cpu time.Duration) {
	for _, p := range d.steady() {
		ops += len(d.lat[p])
		wall += d.wall[p]
		cpu += d.cpu[p]
	}
	return ops, wall, cpu
}

// opsPerSec is the throughput of the steady passes together.
func (d dispatch) opsPerSec() float64 {
	ops, wall, _ := d.steadyTotals()
	return float64(ops) / wall.Seconds()
}

// cpuPerOp is the CPU time per op of the steady passes together.
func (d dispatch) cpuPerOp() time.Duration {
	ops, _, cpu := d.steadyTotals()
	return cpu / time.Duration(ops)
}

// quantile returns the nearest-rank q-quantile of the latencies of
// every op of the steady passes.
func (d dispatch) quantile(q float64) time.Duration {
	var s []time.Duration
	for _, p := range d.steady() {
		s = append(s, d.lat[p]...)
	}
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// steadyOps is the number of ops in the steady passes.
func (d dispatch) steadyOps() int {
	ops, _, _ := d.steadyTotals()
	return ops
}

// window is one measured run of passes with the process-wide resource
// accounting around it and the host-speed probe rounds made during it.
type window struct {
	dispatch
	probes     []time.Duration
	mallocs    uint64
	allocBytes uint64
	peakHeap   uint64 // largest sampled live-object heap
	gcCPU      float64
	totalCPU   float64
	gcCycles   uint64
}

// segDur is how long a measured run dispatches passes between two probe
// rounds.
const segDur = time.Second

// measure runs passes for at least minDur in segments of segDur, between
// two snapshots of the process's allocation counters and GC counters,
// sampling the heap meanwhile. Before each segment it collects garbage,
// so no GC cycle of the workload overlaps the probe round that follows,
// and every segment starts from the workload's live heap. The
// collections and probe rounds are left out of the counters and the
// passes.
func measure(workers int, order []int, minDur time.Duration, op func(w, item int) bool) window {
	w := window{dispatch: dispatch{n: len(order), lanes: newLanes(workers, len(order), minDur)}}
	before := snapshot()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go sampleHeap(stop, peak)
	var probeCost counters
	for {
		p0 := snapshot()
		runtime.GC()
		w.probes = append(w.probes, probeRound(workers))
		probeCost = probeCost.add(snapshot().sub(p0))
		w.run(order, min(segDur, max(minDur-w.elapsed, 0)), op)
		if w.elapsed >= minDur {
			break
		}
	}
	close(stop)
	w.peakHeap = <-peak
	c := snapshot().sub(before).sub(probeCost)
	w.dispatch = w.group()
	w.mallocs, w.allocBytes = c.mallocs, c.allocBytes
	w.gcCPU, w.totalCPU, w.gcCycles = c.gcCPU, c.totalCPU, c.gcCycles
	return w
}

type counters struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	gcCycles            uint64
}

func (c counters) sub(o counters) counters {
	return counters{c.mallocs - o.mallocs, c.allocBytes - o.allocBytes, c.gcCPU - o.gcCPU, c.totalCPU - o.totalCPU, c.gcCycles - o.gcCycles}
}

func (c counters) add(o counters) counters {
	return counters{c.mallocs + o.mallocs, c.allocBytes + o.allocBytes, c.gcCPU + o.gcCPU, c.totalCPU + o.totalCPU, c.gcCycles + o.gcCycles}
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func snapshot() counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.gcCPU = s[0].Value.Float64()
	c.totalCPU = s[1].Value.Float64()
	c.gcCycles = s[2].Value.Uint64()
	return c
}

// sampleHeap reads the live-object heap every 2ms until stop closes,
// then sends the largest value seen.
func sampleHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var hi uint64
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		hi = max(hi, s[0].Value.Uint64())
		select {
		case <-stop:
			peak <- hi
			return
		case <-t.C:
		}
	}
}
