package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/wire"
)

// flightDump fetches a flight-recorder dump and parses each entry as an
// lsms-trace/1 document.
func flightDump(t *testing.T, url string) (int, []*obs.TraceDoc) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder status %d", resp.StatusCode)
	}
	var dump struct {
		Total   int               `json:"total_recorded"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	docs := make([]*obs.TraceDoc, len(dump.Entries))
	for i, e := range dump.Entries {
		if docs[i], err = obs.UnmarshalTraceDoc(e); err != nil {
			t.Fatalf("flight entry %d: %v", i, err)
		}
	}
	return dump.Total, docs
}

// newDebugServer mounts the debug surface the way cmd/lsmsd does: on
// its own listener, separate from the compile port.
func newDebugServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ds := httptest.NewServer(s.DebugHandler())
	t.Cleanup(ds.Close)
	return ds
}

// A scrape taken after traffic on every outcome path must pass the
// exposition lint: HELP/TYPE for every family, no duplicate samples,
// counters suffixed _total, histograms with cumulative le buckets.
func TestMetricsExpositionLints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	m := machine.Cydra()

	// Success, cache hit, budget-exhausted, infeasible, bad request —
	// populate every family the lint will see.
	body := requestBody(t, fixture.Daxpy(m), "slack", wire.Options{})
	post(t, ts.URL, body)
	post(t, ts.URL, body)
	post(t, ts.URL, requestBody(t, fixture.Divide(m), "slack", budgetTripOptions))
	post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "slack", wire.Options{MaxII: 1}))
	post(t, ts.URL, []byte("{not json"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if issues := obs.LintExposition(bytes.NewReader(b)); len(issues) != 0 {
		t.Fatalf("exposition lint found %d issues in:\n%s\nissues: %v", len(issues), b, issues)
	}
	// The labelled compile counter must carry both dimensions.
	if !strings.Contains(string(b), `lsmsd_compiles_total{scheduler="slack",outcome="ok"}`) {
		t.Fatalf("no labelled ok compile sample in:\n%s", b)
	}
	if !strings.Contains(string(b), `lsmsd_compiles_total{scheduler="slack",outcome="central-iterations"}`) {
		t.Fatalf("no budget-reason outcome label in:\n%s", b)
	}
}

// budgetTripOptions make divide's first II attempt give up (one ejection
// and out) and the central-iteration cap trip at the attempt boundary —
// a deterministic mid-compile budget exhaustion with a real event tail.
var budgetTripOptions = wire.Options{EjectBudgetPerOp: 1, MinEjectBudget: 1, MaxCentralIters: 1}

// The flight recorder retains every compile's trace and, for non-ok
// outcomes, the tail of the scheduler event stream; the debug endpoint
// serves the dump as JSON.
func TestFlightRecorderEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	ds := newDebugServer(t, s)
	m := machine.Cydra()

	post(t, ts.URL, requestBody(t, fixture.Daxpy(m), "slack", wire.Options{}))
	post(t, ts.URL, requestBody(t, fixture.Divide(m), "slack", budgetTripOptions))

	total, docs := flightDump(t, ds.URL+"/debug/flightrecorder")
	if total != 2 || len(docs) != 2 {
		t.Fatalf("dump holds %d/%d traces, want 2", total, len(docs))
	}

	ok, failed := docs[0].Spans(), docs[1].Spans()
	if got := ok[0].StrAttr("lsms.outcome"); got != obs.OutcomeOK || ok[0].StrAttr("lsms.loop") != "daxpy" {
		t.Fatalf("first entry outcome %q loop %q, want ok daxpy", got, ok[0].StrAttr("lsms.loop"))
	}
	if len(ok) < 2 {
		t.Fatal("ok trace recorded no spans")
	}
	if len(ok[0].Events) != 0 || ok[0].DroppedEvents != 0 {
		t.Error("ok trace retained an event tail; retention is for non-ok runs only")
	}
	if ok[0].StrAttr("lsms.request_id") == "" {
		t.Error("trace missing its request ID")
	}

	if got := failed[0].StrAttr("lsms.outcome"); got != obs.OutcomeCentralIters {
		t.Fatalf("failed entry outcome %q, want %q", got, obs.OutcomeCentralIters)
	}
	if len(failed[0].Events) == 0 {
		t.Fatal("failed trace retained no event tail")
	}
	culprit := failed[0].StrAttr("lsms.culprit")
	if culprit == "" {
		t.Fatal("failed trace elected no culprit span")
	}
	// The culprit names a phase span that carries the failing outcome.
	var culpritSeen bool
	for _, sp := range failed[1:] {
		if sp.Name == culprit && sp.StrAttr("lsms.outcome") == obs.OutcomeCentralIters {
			culpritSeen = true
		}
	}
	if !culpritSeen {
		t.Errorf("no %q span carries lsms.outcome %q", culprit, obs.OutcomeCentralIters)
	}

	if n := metricValue(t, ts.URL, "lsmsd_flightrecorder_entries"); n != 2 {
		t.Errorf("lsmsd_flightrecorder_entries = %d, want 2", n)
	}
}

// The pprof surface is mounted on the debug handler, not the compile
// handler.
func TestDebugPprof(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	ds := newDebugServer(t, s)

	resp, err := http.Get(ds.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable on the compile port")
	}
}

// Every compile response is stamped with a request ID (caller-supplied
// X-Request-Id wins), and the structured log carries it.
func TestRequestIDAndLogging(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	s, err := New(Config{Workers: 2, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	body := requestBody(t, fixture.Daxpy(machine.Cydra()), "slack", wire.Options{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-7" {
		t.Errorf("request ID %q, want the caller's caller-7", got)
	}

	r2, _ := post(t, ts.URL, body) // cache hit, server-generated ID
	if got := r2.Header.Get("X-Request-Id"); got == "" || got == "caller-7" {
		t.Errorf("second request ID %q, want a fresh server-generated one", got)
	}

	var sawCompile, sawHit bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec["request_id"] == "caller-7" && rec["outcome"] == obs.OutcomeOK {
			sawCompile = true
		}
		if rec["cache"] == "hit" {
			sawHit = true
		}
	}
	if !sawCompile || !sawHit {
		t.Errorf("log stream missing compile/hit records:\n%s", logBuf.String())
	}
}
