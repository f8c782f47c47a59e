package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/): the
// cross-process half of the tracer. A request arrives with (or without)
// a `traceparent` header; the server parses it into a SpanContext,
// mints its own root span ID under the caller's TraceID, threads the
// context through the pipeline alongside the Trace, and returns the
// `traceparent` of its root span so the caller can stitch the hop into
// its own trace. Work triggered asynchronously by a request — the
// refine pool's exact re-search, a warm-start compile — runs under a
// fresh TraceID but carries a span *link* back to the originating
// context, the OTLP relationship for "caused by, but not nested under".

// TraceID is the 16-byte W3C trace identifier. The zero value is
// invalid per the spec and doubles as "no trace context attached".
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) identifier. All-zero is
// invalid.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext identifies one span in one trace plus the sampling
// verdict — the unit that crosses process boundaries (as a traceparent
// header) and that span links point at.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// IsZero reports whether no context is attached (invalid TraceID).
func (sc SpanContext) IsZero() bool { return sc.TraceID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value,
// version 00: `00-<trace-id>-<parent-id>-<trace-flags>`.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Per the spec,
// version ff is invalid, future versions are accepted if the prefix
// parses as version 00 does, and all-zero trace or span IDs are
// rejected. Callers treat any error as "no incoming context" and start
// a fresh trace — a malformed header must never break the request.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, fmt.Errorf("obs: traceparent %q too short", h)
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("obs: traceparent %q misplaces its separators", h)
	}
	var version [1]byte
	if _, err := hex.Decode(version[:], []byte(h[0:2])); err != nil {
		return sc, fmt.Errorf("obs: traceparent version: %w", err)
	}
	if version[0] == 0xff {
		return sc, fmt.Errorf("obs: traceparent version ff is invalid")
	}
	if version[0] == 0 && len(h) != 55 {
		return sc, fmt.Errorf("obs: version-00 traceparent %q has trailing data", h)
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent parent-id: %w", err)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent flags: %w", err)
	}
	if sc.TraceID.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent trace-id is all zero")
	}
	if sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("obs: traceparent parent-id is all zero")
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, nil
}

// NewTraceID returns a random (valid, non-zero) trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		if _, err := rand.Read(t[:]); err != nil {
			// crypto/rand failing is unrecoverable for the process, but the
			// tracer must not be the thing that kills it: fall back to a
			// fixed nonzero ID and let the request proceed untraced-ish.
			t[0] = 1
		}
	}
	return t
}

// NewSpanID returns a random (valid, non-zero) span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		if _, err := rand.Read(s[:]); err != nil {
			s[0] = 1
		}
	}
	return s
}

// NewSpanContext returns a fresh root context: new trace, new span.
// The caller decides Sampled (see Sample).
func NewSpanContext() SpanContext {
	return SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// Sample is the deterministic head-sampling decision for locally
// rooted traces: 1-in-n by the trace ID's leading 8 bytes, so the
// same trace ID gets the same verdict on every node (a fleet samples
// coherently without coordination). n <= 0 disables sampling, n == 1
// samples everything.
func Sample(id TraceID, n int) bool {
	if n <= 0 {
		return false
	}
	if n == 1 {
		return true
	}
	return binary.BigEndian.Uint64(id[:8])%uint64(n) == 0
}

// deriveSpanID deterministically derives the i-th child span ID from
// the root span ID via a splitmix64 step — collision-free across i for
// one root, stable across re-exports of the same trace (the golden
// fixture's requirement), and never the root itself or zero.
func deriveSpanID(root SpanID, i int) SpanID {
	x := binary.BigEndian.Uint64(root[:]) + uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	var s SpanID
	binary.BigEndian.PutUint64(s[:], x)
	if s.IsZero() {
		s[7] = 1
	}
	return s
}
