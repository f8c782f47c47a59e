package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/fixture"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Golden reconstruction: the TextObserver rendering of a run must be
// byte-identical whether it watched the run live or replayed the run's
// flight-recorder tail. This is the property that makes the flight
// recorder a debugging tool rather than a summary — what it replays is
// what happened.
func TestTextTraceReconstructedFromTailByteIdentical(t *testing.T) {
	m := machine.Cydra()
	// tinyEject makes divide backtrack, covering "forced" lines; the
	// other fixtures cover the plain "chose" lines.
	for _, cfg := range []Config{{}, {EjectBudgetPerOp: 1, MinEjectBudget: 1}} {
		for _, l := range fixture.All(m) {
			var live bytes.Buffer
			tail := NewTailRecorder(1 << 16) // lossless for these runs
			c := cfg
			c.Observer = Observers{TextObserver(&live), tail}
			if _, err := schedule(Slack(c), l); err != nil {
				t.Fatal(err)
			}
			if tail.Dropped() != 0 {
				t.Fatalf("%s: tail lossy (%d dropped); the golden test needs the whole stream", l.Name, tail.Dropped())
			}

			// Round-trip through a flight-recorder dump: the tail rides
			// on the root span of the entry's lsms-trace/1 document.
			tr := obs.NewTrace("req", l.Name)
			tail.AttachTail(tr)
			tr.Finish(obs.OutcomeOK)
			events, err := eventsFrom(dumpRoot(t, tr))
			if err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			var replayed bytes.Buffer
			Replay(events, TextObserver(&replayed))

			if live.Len() == 0 {
				t.Fatalf("%s: live trace produced nothing", l.Name)
			}
			if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
				t.Fatalf("%s: replayed trace differs from live trace\nlive:\n%s\nreplayed:\n%s",
					l.Name, live.String(), replayed.String())
			}
		}
	}
}

// The ring keeps exactly the last N events, oldest-first, and accounts
// for what fell off the front.
func TestTailRecorderRing(t *testing.T) {
	full := &recorder{}
	ring := NewTailRecorder(32)
	l := fixture.Divide(machine.Cydra())
	cfg := tinyEject
	cfg.Observer = Observers{full, ring}
	if _, err := schedule(Slack(cfg), l); err != nil {
		t.Fatal(err)
	}
	if len(full.events) <= 32 {
		t.Fatalf("run emitted only %d events; the ring test needs an overflow", len(full.events))
	}
	tail := ring.Tail()
	if len(tail) != 32 {
		t.Fatalf("tail holds %d events, want 32", len(tail))
	}
	if ring.Total() != len(full.events) {
		t.Fatalf("Total = %d, want %d", ring.Total(), len(full.events))
	}
	if ring.Dropped() != len(full.events)-32 {
		t.Fatalf("Dropped = %d, want %d", ring.Dropped(), len(full.events)-32)
	}
	if !reflect.DeepEqual(tail, full.events[len(full.events)-32:]) {
		t.Fatal("tail is not the last 32 events of the stream")
	}
}

// dumpRoot records tr in a flight recorder, dumps it, and parses the
// dump's one entry back through obs.UnmarshalTraceDoc, returning the
// entry's root span.
func dumpRoot(t *testing.T, tr *obs.Trace) obs.SpanData {
	t.Helper()
	r := obs.NewFlightRecorder(1)
	r.Record(tr)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil || len(dump.Entries) != 1 {
		t.Fatalf("flight dump (%v): %s", err, buf.Bytes())
	}
	doc, err := obs.UnmarshalTraceDoc(dump.Entries[0])
	if err != nil {
		t.Fatal(err)
	}
	return doc.Spans()[0]
}

// Every Event field survives AttachTail → lsms-trace/1 → eventsFrom,
// including negative and zero values; AttachTail on a nil trace is a
// no-op; the dropped count rides along; and a document this build does
// not understand is an error, not a silently shortened tail.
func TestTailAttachEdgeCases(t *testing.T) {
	ring := NewTailRecorder(2)
	ring.AttachTail(nil) // must not panic
	want := []Event{
		{Kind: EvPlace, Loop: "l", Policy: "slack", II: 3, Iter: 4, Op: 1, Cycle: -1, Estart: 2, Lstart: 9},
		{Kind: EvAttemptEnd, Loop: "l", Policy: "slack", II: 3, Op: -1, Ejections: 6, OK: false, Outcome: AttemptCentralIters},
	}
	ring.Event(Event{Kind: EvAttemptStart}) // falls off the front
	for _, e := range want {
		ring.Event(e)
	}
	tr := obs.NewTrace("r", "l")
	ring.AttachTail(tr)
	tr.Finish(obs.OutcomeCentralIters)
	root := dumpRoot(t, tr)
	if root.DroppedEvents != 1 {
		t.Fatalf("droppedEventsCount = %d, want 1", root.DroppedEvents)
	}
	got, err := eventsFrom(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("eventsFrom = %+v, want %+v", got, want)
	}

	bad := root
	bad.Events = []obs.SpanEvent{{Name: "teleport"}}
	if _, err := eventsFrom(bad); err == nil {
		t.Fatal("unknown event kind accepted")
	}
	three := "3"
	bad.Events = []obs.SpanEvent{{Name: "place", Attributes: []obs.KeyValue{
		{Key: "loop", Value: obs.AnyValue{Int: &three}}, // an integer where a string belongs
	}}}
	if _, err := eventsFrom(bad); err == nil {
		t.Fatal("mistyped attribute accepted")
	}
}

// eventsFrom decodes the scheduler events an lsms-trace/1 span carries
// (AttachTail's encoding), oldest first, ready to Replay. An event of
// unknown kind or outcome, an unknown attribute, or a malformed value is
// an error, so a test cannot pass on a silently shortened tail.
func eventsFrom(sd obs.SpanData) ([]Event, error) {
	out := make([]Event, len(sd.Events))
	for i, se := range sd.Events {
		e := &out[i]
		var ok bool
		if e.Kind, ok = parseName[EventKind](se.Name, numEventKinds); !ok {
			return nil, fmt.Errorf("sched: event %d: unknown kind %q", i, se.Name)
		}
		for _, kv := range se.Attributes {
			var err error
			switch kv.Key {
			case "loop":
				e.Loop, err = strValue(kv.Value)
			case "policy":
				e.Policy, err = strValue(kv.Value)
			case "outcome":
				var name string
				if name, err = strValue(kv.Value); err == nil {
					if e.Outcome, ok = parseName[AttemptOutcome](name, numAttemptOutcomes); !ok {
						err = fmt.Errorf("unknown outcome %q", name)
					}
				}
			case "ok":
				var v int
				v, err = intValue(kv.Value)
				e.OK = v != 0
			case "ii":
				e.II, err = intValue(kv.Value)
			case "iter":
				e.Iter, err = intValue(kv.Value)
			case "op":
				e.Op, err = intValue(kv.Value)
			case "cycle":
				e.Cycle, err = intValue(kv.Value)
			case "estart":
				e.Estart, err = intValue(kv.Value)
			case "lstart":
				e.Lstart, err = intValue(kv.Value)
			case "ejections":
				e.Ejections, err = intValue(kv.Value)
			default:
				err = fmt.Errorf("unknown attribute")
			}
			if err != nil {
				return nil, fmt.Errorf("sched: event %d (%s) attribute %q: %w", i, se.Name, kv.Key, err)
			}
		}
	}
	return out, nil
}

// parseName inverts the String method of a small enumeration.
func parseName[T interface {
	~uint8
	String() string
}](name string, n T) (T, bool) {
	for v := T(0); v < n; v++ {
		if v.String() == name {
			return v, true
		}
	}
	return 0, false
}

func strValue(v obs.AnyValue) (string, error) {
	if v.Str == nil {
		return "", fmt.Errorf("not a string")
	}
	return *v.Str, nil
}

func intValue(v obs.AnyValue) (int, error) {
	if v.Int == nil {
		return 0, fmt.Errorf("not an integer")
	}
	return strconv.Atoi(*v.Int)
}
