package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// A nil trace must absorb the whole span API without allocating or
// panicking — that is the disabled pipeline's fast path.
func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	sp := tr.Start("phase")
	sp.Int("n", 3).Str("k", "v")
	sp.End(OutcomeOK)
	tr.Finish(OutcomeOK)
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on a bare context = %v, want nil", got)
	}
	if ctx := WithTrace(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("WithTrace(nil) should not attach anything")
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTrace("req-1", "daxpy")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through the context")
	}
	a := tr.Start("mindist").Int("ii", 7)
	a.End(OutcomeOK)
	b := tr.Start("attempt").Int("ii", 7)
	b.End(OutcomeDeadline)
	tr.Finish(OutcomeBudgetExhausted)
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Dur <= 0 || tr.Spans[1].Dur <= 0 {
		t.Fatal("span durations not recorded")
	}
	if tr.Dur <= 0 || tr.Outcome != OutcomeBudgetExhausted {
		t.Fatalf("trace not finished: %+v", tr)
	}
}

// The culprit is the most recent span whose outcome matches the
// trace's — the phase that was running when the budget tripped.
func TestCulpritElection(t *testing.T) {
	tr := NewTrace("r", "l")
	tr.Start("mindist").End(OutcomeOK)
	tr.Start("attempt").End(OutcomeDeadline)
	tr.Finish(OutcomeDeadline)
	if tr.Culprit != "attempt" {
		t.Fatalf("culprit = %q, want attempt", tr.Culprit)
	}

	// No matching span: fall back to the longest one.
	tr2 := NewTrace("r", "l")
	s1 := tr2.Start("short")
	s1.End(OutcomeOK)
	s2 := tr2.Start("long")
	s2.End(OutcomeOK)
	s2.Dur = time.Second
	tr2.Finish(OutcomeError)
	if tr2.Culprit != "long" {
		t.Fatalf("culprit = %q, want long", tr2.Culprit)
	}
}

func TestSpanDoubleEndIgnored(t *testing.T) {
	tr := NewTrace("r", "l")
	sp := tr.Start("x")
	sp.End(OutcomeOK)
	d := sp.Dur
	sp.End(OutcomeError)
	if sp.Dur != d || sp.Outcome != OutcomeOK {
		t.Fatal("second End should be a no-op")
	}
}

// parseDump reads a flight-recorder dump back: the total and each
// entry as an lsms-trace/1 document.
func parseDump(t *testing.T, b []byte) (uint64, []*TraceDoc) {
	t.Helper()
	var dump struct {
		Total   uint64            `json:"total_recorded"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(b, &dump); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	docs := make([]*TraceDoc, len(dump.Entries))
	for i, e := range dump.Entries {
		doc, err := UnmarshalTraceDoc(e)
		if err != nil {
			t.Fatalf("dump entry %d: %v", i, err)
		}
		docs[i] = doc
	}
	return dump.Total, docs
}

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), "loop")
		tr.Finish(OutcomeOK)
		r.Record(tr)
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3 and 5", r.Len(), r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot holds %d, want 3", len(snap))
	}
	for i, want := range []string{"req-2", "req-3", "req-4"} {
		if snap[i].ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (oldest-first)", i, snap[i].ID, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	total, docs := parseDump(t, buf.Bytes())
	if total != 5 || len(docs) != 3 {
		t.Fatalf("dump total=%d entries=%d", total, len(docs))
	}
	for i, want := range []string{"req-2", "req-3", "req-4"} {
		root := docs[i].Spans()[0]
		if got := root.StrAttr("lsms.request_id"); got != want {
			t.Fatalf("entry %d request ID %q, want %s", i, got, want)
		}
	}

	// A filter that keeps nothing still dumps an empty entry list.
	buf.Reset()
	if err := r.WriteJSONFilter(&buf, func(*Trace) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"entries": []`)) {
		t.Fatalf("empty filtered dump should carry an empty list:\n%s", buf.String())
	}
}

// A span of known length reads back from the dump with that length:
// lsms-trace/1 stamps are Unix nanoseconds, so end − start is the
// span's Dur to the nanosecond.
func TestFlightDumpSpanDuration(t *testing.T) {
	tr := NewTrace("req-1", "loop")
	sp := tr.Start("sleep")
	time.Sleep(2 * time.Millisecond)
	sp.End(OutcomeOK)
	tr.Finish(OutcomeOK)
	r := NewFlightRecorder(1)
	r.Record(tr)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	_, docs := parseDump(t, buf.Bytes())
	spans := docs[0].Spans()
	dur := func(sd SpanData) time.Duration {
		start, err1 := strconv.ParseInt(sd.StartNano, 10, 64)
		end, err2 := strconv.ParseInt(sd.EndNano, 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("span %s stamps %q..%q", sd.Name, sd.StartNano, sd.EndNano)
		}
		return time.Duration(end - start)
	}
	if got := dur(spans[1]); got != sp.Dur || got < 2*time.Millisecond {
		t.Fatalf("dumped span lasts %v, want %v (≥ 2ms)", got, sp.Dur)
	}
	if got := dur(spans[0]); got != tr.Dur {
		t.Fatalf("dumped root lasts %v, want %v", got, tr.Dur)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := NewTrace("id", "loop")
				tr.Finish(OutcomeOK)
				r.Record(tr)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 1600 {
		t.Fatalf("Total = %d, want 1600", r.Total())
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTrace("req-1", "daxpy")
	tr.Scheduler = "slack"
	tr.Start("mindist").Int("ii", 7).End(OutcomeOK)
	tr.Start("attempt").Int("ii", 7).Str("policy", "slack").End(OutcomeOK)
	tr.Finish(OutcomeOK)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []*TraceDoc{NewTraceDoc(tr)}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v\n%s", err, buf.String())
	}
	// One metadata event, one compile event, two phase events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	byPh := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		if e.Ph == "X" {
			if e.TS == nil {
				t.Fatalf("complete event %q missing ts", e.Name)
			}
			if e.PID != 1 || e.TID != 1 {
				t.Fatalf("event %q on pid/tid %d/%d", e.Name, e.PID, e.TID)
			}
		}
	}
	if byPh["M"] != 1 || byPh["X"] != 3 {
		t.Fatalf("event phases %v, want 1 M + 3 X", byPh)
	}
}

// chromeGoldenTraces is a fixed trace set covering what the Chrome view
// renders: two traces on separate tracks at sub-microsecond offsets, a
// request ID distinct from (and equal to) the loop name, string and
// integer attributes, a non-ok span, a span that never ended, and a
// trace-level error.
func chromeGoldenTraces() []*Trace {
	t0 := time.Unix(1700000000, 0).UTC()
	a := &Trace{
		ID: "req-000001", Name: "daxpy", Scheduler: "slack",
		Began: t0, Dur: 1200 * time.Microsecond, Outcome: OutcomeOK,
	}
	a.Spans = []*Span{
		{Name: "mindist", Start: 5 * time.Microsecond, Dur: 300 * time.Microsecond, Outcome: OutcomeOK,
			Attrs: []Attr{{Key: "ii", Int: 3}}},
		{Name: "schedule", Start: 310 * time.Microsecond, Dur: 800*time.Microsecond + 250*time.Nanosecond, Outcome: OutcomeOK,
			Attrs: []Attr{{Key: "ii", Int: 3}, {Key: "policy", Str: "slack"}}},
	}
	b := &Trace{
		ID: "divide", Name: "divide", Scheduler: "cydrome",
		Began: t0.Add(2500*time.Microsecond + 125*time.Nanosecond), Dur: 4*time.Millisecond + 1,
		Outcome: OutcomeCentralIters, Err: "sched: divide: central-iterations budget exhausted at II=5",
	}
	b.Spans = []*Span{
		{Name: "mindist", Start: 2 * time.Microsecond, Dur: 150 * time.Microsecond, Outcome: OutcomeOK},
		{Name: "attempt", Start: 160 * time.Microsecond, Dur: 3*time.Millisecond + 7, Outcome: OutcomeCentralIters,
			Attrs: []Attr{{Key: "ii", Int: 5}, {Key: "ejections", Int: 12}, {Key: "policy", Str: "cydrome"}, {Key: "forced", Int: 0}}},
		{Name: "regalloc", Start: 3500 * time.Microsecond},
	}
	return []*Trace{a, b}
}

// TestChromeTraceGolden pins the Chrome view byte for byte against the
// output of the former direct Trace writer (testdata/chrome_golden.json
// was generated by it), converting documents parsed back from
// MarshalTrace's bytes — the view shows only what the encoding holds.
func TestChromeTraceGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "chrome_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var parsed, built []*TraceDoc
	for _, tr := range chromeGoldenTraces() {
		b, err := MarshalTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := UnmarshalTraceDoc(b)
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, doc)
		built = append(built, NewTraceDoc(tr))
	}
	for name, docs := range map[string][]*TraceDoc{"parsed": parsed, "built": built} {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, docs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s documents: Chrome view drifted from the golden.\ngot:\n%s\nwant:\n%s", name, buf.Bytes(), want)
		}
	}
}
