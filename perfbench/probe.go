package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// The host-speed probe. The benchmark runs on shared virtual machines
// whose speed for this process drifts by 20–30% over minutes with the
// load of other tenants, and the drift moves every timing of a run
// alike. A probe round decodes a fixed JSON document on every worker at
// once; measure makes one before each segment of a run and runBench one
// before each set-up. The probe calls no code of the program, so a
// change to the program does not move it, but it runs on the same
// vCPUs at the same time as the workload, and its time tracks the
// host's speed for the kind of work the program does (reflection,
// parsing, small allocations). The timing metrics are reported at the
// speed of a reference host: divided or multiplied by hostSpeed.

// probeRecord is one record of the probe document.
type probeRecord struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Args   [4]int  `json:"args"`
	Weight float64 `json:"weight"`
	Live   bool    `json:"live"`
}

type probeDoc struct {
	Version int              `json:"version"`
	Records [32]probeRecord  `json:"records"`
	Totals  [8]float64       `json:"totals"`
	Labels  map[string]int64 `json:"labels"`
}

// probeBody is the fixed document every probe round decodes.
var probeBody = func() []byte {
	doc := probeDoc{Version: 3, Labels: map[string]int64{}}
	for i := range doc.Records {
		doc.Records[i] = probeRecord{
			ID:     i * 7919 % 1000,
			Name:   fmt.Sprintf("v%d.%d", i, i*i%13),
			Kind:   []string{"load", "store", "fadd", "fmul", "iadd", "br"}[i%6],
			Args:   [4]int{i, i * 3, i*i - 5, 1000 - i},
			Weight: float64(i) / 7,
			Live:   i%3 != 0,
		}
	}
	for i := range doc.Totals {
		doc.Totals[i] = float64(i*i) * 1.25
	}
	for i := range 8 {
		doc.Labels[fmt.Sprintf("label%d", i)] = int64(i) << 20
	}
	body, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return body
}()

// probeDecodes is how many times each worker decodes probeBody in one
// probe round.
const probeDecodes = 130

// refProbe is the CPU time of one probe round on the reference host, a
// round figure at the slow end of the rounds measured on a shared
// 2-vCPU Intel Xeon virtual machine with 2 workers (24–43 ms over one
// batch of forty runs).
const refProbe = 40 * time.Millisecond

// probeRound decodes probeBody probeDecodes times on each of workers
// goroutines at once and returns the process's CPU time over the round:
// like the steady passes, it leaves out time other tenants take from
// the process.
func probeRound(workers int) time.Duration {
	var wg sync.WaitGroup
	start := cpuTime()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range probeDecodes {
				var doc probeDoc
				if err := json.Unmarshal(probeBody, &doc); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	return cpuTime() - start
}

// hostSpeed is the host's speed during a run relative to the reference
// host: refProbe over the run's median probe round.
func hostSpeed(probes []time.Duration) float64 {
	xs := make([]float64, len(probes))
	for i, p := range probes {
		xs[i] = p.Seconds()
	}
	return refProbe.Seconds() / median(xs)
}
