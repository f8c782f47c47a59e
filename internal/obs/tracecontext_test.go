package obs

import (
	"testing"
)

func TestParseTraceparentValid(t *testing.T) {
	h := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.TraceID.String(); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("trace ID %s", got)
	}
	if got := sc.SpanID.String(); got != "0123456789abcdef" {
		t.Fatalf("span ID %s", got)
	}
	if !sc.Sampled {
		t.Fatal("flags 01 should mean sampled")
	}
	if sc.Traceparent() != h {
		t.Fatalf("round trip: %s != %s", sc.Traceparent(), h)
	}
	sc2, err := ParseTraceparent("00-0123456789abcdef0123456789abcdef-0123456789abcdef-00")
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Sampled {
		t.Fatal("flags 00 should mean unsampled")
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Per spec, a higher version with extra trailing data still parses
	// as long as the version-00 prefix is well-formed.
	sc, err := ParseTraceparent("cc-0123456789abcdef0123456789abcdef-0123456789abcdef-01-extra")
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Sampled {
		t.Fatal("sampled flag lost")
	}
}

func TestParseTraceparentInvalid(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"short":             "00-abc",
		"version ff":        "ff-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"zero trace id":     "00-00000000000000000000000000000000-0123456789abcdef-01",
		"zero span id":      "00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"bad separators":    "00_0123456789abcdef0123456789abcdef_0123456789abcdef_01",
		"non-hex trace id":  "00-0123456789abcdeg0123456789abcdef-0123456789abcdef-01",
		"v00 trailing data": "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01-x",
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q parsed without error", name, h)
		}
	}
}

func TestNewIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("zero trace ID")
		}
		s := id.String()
		if seen[s] {
			t.Fatalf("trace ID %s repeated", s)
		}
		seen[s] = true
	}
	if NewSpanID().IsZero() {
		t.Fatal("zero span ID")
	}
}

func TestSampleDeterministic(t *testing.T) {
	id := NewTraceID()
	if Sample(id, 0) || Sample(id, -5) {
		t.Fatal("n <= 0 must never sample")
	}
	if !Sample(id, 1) {
		t.Fatal("n == 1 must always sample")
	}
	// The verdict is a pure function of the ID: every call agrees.
	for n := 2; n < 10; n++ {
		first := Sample(id, n)
		for i := 0; i < 5; i++ {
			if Sample(id, n) != first {
				t.Fatalf("Sample(%d) flapped", n)
			}
		}
	}
	// 1-in-2 over many fresh IDs lands somewhere sane.
	hits := 0
	for i := 0; i < 1000; i++ {
		if Sample(NewTraceID(), 2) {
			hits++
		}
	}
	if hits < 350 || hits > 650 {
		t.Fatalf("1-in-2 sampling hit %d/1000", hits)
	}
}

func TestDeriveSpanIDStableAndDistinct(t *testing.T) {
	root := NewSpanID()
	seen := map[string]bool{root.String(): true}
	for i := 0; i < 100; i++ {
		a, b := deriveSpanID(root, i), deriveSpanID(root, i)
		if a != b {
			t.Fatalf("derivation %d not deterministic", i)
		}
		if a.IsZero() {
			t.Fatalf("derivation %d produced zero", i)
		}
		if seen[a.String()] {
			t.Fatalf("derivation %d collided", i)
		}
		seen[a.String()] = true
	}
}

// The span contexts a trace carries survive its lsms-trace/1 encoding:
// the root span's traceId/spanId are the trace's own context and its
// parentSpanId is the caller's span.
func TestSpanContextJSONRoundTrip(t *testing.T) {
	sc, err := ParseTraceparent("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace("req-1", "loop")
	tr.Ctx = SpanContext{TraceID: sc.TraceID, SpanID: NewSpanID(), Sampled: true}
	tr.Parent = sc
	tr.Finish(OutcomeOK)
	b, err := MarshalTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := UnmarshalTraceDoc(b)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Spans()[0]
	if root.TraceID != tr.Ctx.TraceID.String() || root.SpanID != tr.Ctx.SpanID.String() ||
		root.ParentSpanID != sc.SpanID.String() {
		t.Fatalf("span context did not survive the round trip: %+v", root)
	}
}
