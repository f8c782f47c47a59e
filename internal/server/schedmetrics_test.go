package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/wire"
)

// TestMetricsFoldConcurrentMisses is the -race test of the per-request
// Metrics fold: many concurrent cache misses each collect their own
// event-stream Metrics and merge them into the server aggregate once.
// Server.Metrics() must then equal the sum of independent per-run
// Metrics for the same loops, and concurrent snapshots must be safe.
func TestMetricsFoldConcurrentMisses(t *testing.T) {
	size := 48
	if testing.Short() {
		size = 16
	}
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	want := sched.Metrics{}
	var bodies [][]byte
	seen := map[string]bool{}
	for _, wl := range w.Loops {
		req, err := wire.NewRequest(wl.CL.Loop, "slack", wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := req.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			continue // an identical request would hit or dedup, not miss
		}
		seen[h] = true
		m := &sched.Metrics{}
		opt := core.Options{Scheduler: core.SchedSlack, Config: sched.Config{Observer: m}, SkipCodegen: true}
		if _, err := core.CompileContext(context.Background(), wl.CL.Loop, opt); err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		want.Merge(m)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}

	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: len(bodies)})
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lsmsd-Cache") != "miss" {
				t.Errorf("status %d, cache %q; want a 200 miss", resp.StatusCode, resp.Header.Get("X-Lsmsd-Cache"))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = s.Metrics()
		}
	}()
	wg.Wait()
	<-done
	if got := s.Metrics(); got != want {
		t.Errorf("server metrics differ from the sum of per-run metrics:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestNoFastPathsOptionIgnored: a request carrying the retired
// "no_fast_paths" option gets the same content hash and a
// byte-identical 200 body as the same request without it, each compiled
// cold on its own server.
func TestNoFastPathsOptionIgnored(t *testing.T) {
	plain := requestBody(t, fixture.Divide(machine.Cydra()), "slack", wire.Options{})
	var doc map[string]any
	if err := json.Unmarshal(plain, &doc); err != nil {
		t.Fatal(err)
	}
	doc["options"] = map[string]any{"no_fast_paths": true}
	withKey, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, req := range [][]byte{plain, withKey} {
		_, ts := newTestServer(t, Config{Workers: 1})
		resp, body := post(t, ts.URL, req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Lsmsd-Cache") != "miss" {
			t.Fatalf("status %d, cache %q; want a 200 miss: %s", resp.StatusCode, resp.Header.Get("X-Lsmsd-Cache"), body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("no_fast_paths changed the response:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}
