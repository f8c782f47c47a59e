package server

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/loopgen"
	"repro/internal/machine"
	"repro/internal/wire"
)

// kernelLoop pulls one named loop out of the embedded kernel corpus.
// The refinement tests want loops with a known exact-vs-slack verdict:
// on cydra, slack schedules triad at (II=2, MaxLive=19) while the exact
// backend proves (II=2, MaxLive=18), and daxpy is already optimal.
func kernelLoop(t *testing.T, name string) *ir.Loop {
	t.Helper()
	ks, err := loopgen.Kernels(machine.Cydra())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if k.Name == name {
			return k.CL.Loop
		}
	}
	t.Fatalf("kernel %q not in corpus", name)
	return nil
}

// waitRefined polls the compile endpoint until the hit carries
// X-Lsmsd-Refined, returning the refined body. Every poll is a store
// hit (the cold compile already cached a record), so polling never
// re-enqueues work — it just waits for the background upgrade to land.
func waitRefined(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		r, b := post(t, url, body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", r.StatusCode, b)
		}
		if r.Header.Get("X-Lsmsd-Refined") == "true" {
			return b
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("refinement never landed")
	return nil
}

// TestRefineUpgradesStoreEntry is the refinement tier's acceptance
// test: a cold compile answers immediately from slack, the background
// exact search strictly improves it, the store record is upgraded in
// place, and every later hit — including hits served from disk by a
// restarted server with refinement off — returns the refined bytes
// under the X-Lsmsd-Refined header.
func TestRefineUpgradesStoreEntry(t *testing.T) {
	dir := t.TempDir()
	body := requestBody(t, kernelLoop(t, "triad"), "slack", wire.Options{})

	s1, err := New(Config{Workers: 2, StoreDir: dir, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	r0, b0 := post(t, ts1.URL, body)
	if r0.StatusCode != http.StatusOK {
		t.Fatalf("cold compile: status %d, body %s", r0.StatusCode, b0)
	}
	if got := r0.Header.Get("X-Lsmsd-Refined"); got != "" {
		t.Fatalf("cold compile already refined: %q", got)
	}
	base := decodeResponse(t, b0)
	if !base.OK || base.Refined {
		t.Fatalf("cold response: %+v", base)
	}

	refined := waitRefined(t, ts1.URL, body)
	got := decodeResponse(t, refined)
	if !got.OK || !got.Refined {
		t.Fatalf("refined response not marked: %+v", got)
	}
	if got.II > base.II || (got.II == base.II && got.MaxLive >= base.MaxLive) {
		t.Fatalf("refinement did not strictly improve: base (II=%d, ML=%d), refined (II=%d, ML=%d)",
			base.II, base.MaxLive, got.II, got.MaxLive)
	}
	if got.Hash != base.Hash {
		t.Fatalf("refinement changed the request hash: %q vs %q", base.Hash, got.Hash)
	}

	// Once upgraded, the served bytes are stable again.
	r2, b2 := post(t, ts1.URL, body)
	if r2.Header.Get("X-Lsmsd-Refined") != "true" || !bytes.Equal(b2, refined) {
		t.Fatalf("repeat hit unstable after refinement:\n%s\nvs\n%s", refined, b2)
	}

	if v := metricValue(t, ts1.URL, "lsmsd_refine_started_total"); v != 1 {
		t.Errorf("lsmsd_refine_started_total = %d, want 1", v)
	}
	if v := metricValue(t, ts1.URL, "lsmsd_refine_improved_total"); v != 1 {
		t.Errorf("lsmsd_refine_improved_total = %d, want 1", v)
	}

	// The refinement left a trace in the recorder: a `refine` span with
	// outcome improved, linked to the request that caused it, and no
	// event tail (only failed compiles carry one).
	var sawSpan bool
	_, docs := flightDump(t, newDebugServer(t, s1).URL+"/debug/flightrecorder")
	for _, doc := range docs {
		spans := doc.Spans()
		for _, sp := range spans[1:] {
			if sp.Name == "refine" && sp.StrAttr("lsms.outcome") == "improved" {
				sawSpan = true
				if root := spans[0]; len(root.Links) != 1 || len(root.Events) != 0 ||
					root.StrAttr("lsms.outcome") != "improved" || root.StrAttr("lsms.culprit") != "refine" {
					t.Errorf("refine trace root: %+v", root)
				}
			}
		}
	}
	if !sawSpan {
		t.Error("no refine span with outcome improved in the flight recorder")
	}

	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart without refinement: the upgrade is a property of the
	// stored record, not of the serving configuration.
	_, ts2 := newTestServer(t, Config{Workers: 2, StoreDir: dir})
	r3, b3 := post(t, ts2.URL, body)
	if got := r3.Header.Get("X-Lsmsd-Cache"); got != "hit-disk" {
		t.Fatalf("replay cache header: %q, want hit-disk", got)
	}
	if r3.Header.Get("X-Lsmsd-Refined") != "true" {
		t.Fatal("replayed record lost its refined marker")
	}
	if !bytes.Equal(b3, refined) {
		t.Fatalf("replay not byte-identical to refined body:\n%s\nvs\n%s", refined, b3)
	}
}

// TestRefinedBodiesGolden pins the refined response bytes of every
// kernel the exact backend improves on cydra;
// testdata/refine_golden.json maps kernel name to body. Three of
// the searches (cmplxmul, lll07_eos, srot) end on the node cap, so the
// test lifts the refine deadline out of their way; -short checks only
// kernels whose search proves optimality within a few hundred nodes.
func TestRefinedBodiesGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "refine_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	names := slices.Sorted(maps.Keys(golden))
	if testing.Short() {
		names = []string{"clipcond", "lll12_firstdiff", "triad", "wavefront"}
	}
	_, ts := newTestServer(t, Config{Workers: 2, Refine: true, RefineWorkers: 2, RefineDeadline: 5 * time.Minute})
	bodies := map[string][]byte{}
	for _, name := range names {
		bodies[name] = requestBody(t, kernelLoop(t, name), "slack", wire.Options{})
		if r, b := post(t, ts.URL, bodies[name]); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: cold compile status %d: %s", name, r.StatusCode, b)
		}
	}
	for _, name := range names {
		if got := waitRefined(t, ts.URL, bodies[name]); string(got) != golden[name] {
			t.Errorf("%s: refined body drifted:\ngot  %s\nwant %s", name, got, golden[name])
		}
	}
}

// TestRefineUnchangedLeavesRecord: when slack already found the exact
// optimum, the refinement records "unchanged" and the served bytes
// never move.
func TestRefineUnchangedLeavesRecord(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Refine: true})
	body := requestBody(t, kernelLoop(t, "daxpy"), "slack", wire.Options{})

	_, b0 := post(t, ts.URL, body)
	deadline := time.Now().Add(30 * time.Second)
	for metricValue(t, ts.URL, "lsmsd_refine_unchanged_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refinement never finished")
		}
		time.Sleep(25 * time.Millisecond)
	}
	r, b := post(t, ts.URL, body)
	if got := r.Header.Get("X-Lsmsd-Refined"); got != "" {
		t.Fatalf("unchanged refinement set the refined header: %q", got)
	}
	if !bytes.Equal(b, b0) {
		t.Fatalf("unchanged refinement moved the served bytes:\n%s\nvs\n%s", b0, b)
	}
	if v := metricValue(t, ts.URL, "lsmsd_refine_improved_total"); v != 0 {
		t.Errorf("lsmsd_refine_improved_total = %d, want 0", v)
	}
}

// TestRefineSkipsExactRequests: a request that already asked for the
// exact backend has nothing to refine toward; the tier must not
// re-enqueue it.
func TestRefineSkipsExactRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Refine: true})
	body := requestBody(t, kernelLoop(t, "daxpy"), "exact", wire.Options{})
	r, b := post(t, ts.URL, body)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("exact compile: status %d, body %s", r.StatusCode, b)
	}
	// Give a would-be enqueue time to start before asserting none did.
	time.Sleep(100 * time.Millisecond)
	if v := metricValue(t, ts.URL, "lsmsd_refine_started_total"); v != 0 {
		t.Errorf("lsmsd_refine_started_total = %d, want 0", v)
	}
}
