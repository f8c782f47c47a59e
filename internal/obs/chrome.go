package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Chrome trace_event view: renders lsms-trace/1 documents in the JSON
// Object Format the Perfetto UI (and chrome://tracing) accepts — one
// "complete" (ph "X") event per span, one thread per trace, timestamps
// in microseconds relative to the earliest trace. Open the file at
// ui.perfetto.dev. It is a converter, not a writer of its own: anything
// it shows is in the document.

// chromeEvent is one trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace converts lsms-trace/1 documents into one trace_event
// JSON document. Each document becomes its own thread (named after the
// loop and request) inside pid 1, so a bench sweep's loops stack
// vertically in the Perfetto UI while one loop's phases nest on a
// single track: the root span becomes a "compile" event carrying the
// outcome, scheduler and error, and each phase span an event carrying
// its outcome and attributes.
func WriteChromeTrace(w io.Writer, docs []*TraceDoc) error {
	var base int64
	for i, d := range docs {
		spans := d.Spans()
		if len(spans) == 0 {
			return fmt.Errorf("obs: chrome view: trace document without spans")
		}
		start, _, err := spans[0].nanos()
		if err != nil {
			return err
		}
		if i == 0 || start < base {
			base = start
		}
	}
	var events []chromeEvent
	for i, d := range docs {
		tid := i + 1
		spans := d.Spans()
		for j := range spans {
			sd := &spans[j]
			start, end, err := sd.nanos()
			if err != nil {
				return err
			}
			ev := chromeEvent{Name: sd.Name, Cat: "phase", Ph: "X", TS: us(start - base), Dur: us(end - start), PID: 1, TID: tid}
			if j == 0 {
				name, id := sd.StrAttr("lsms.loop"), sd.StrAttr("lsms.request_id")
				label := name
				if id != "" && id != name {
					label = fmt.Sprintf("%s (%s)", name, id)
				}
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", PID: 1, TID: tid,
					Args: map[string]any{"name": label},
				})
				ev.Name, ev.Cat = "compile", "compile"
				ev.Args = map[string]any{"outcome": sd.StrAttr(outcomeKey)}
				if s := sd.StrAttr("lsms.scheduler"); s != "" {
					ev.Args["scheduler"] = s
				}
				if s := sd.StrAttr("lsms.err"); s != "" {
					ev.Args["err"] = s
				}
				events = append(events, ev)
				continue
			}
			ev.Args = make(map[string]any, len(sd.Attributes)+1)
			if sd.Status.Code == 1 {
				ev.Args["outcome"] = OutcomeOK // overridden by lsms.outcome when not ok
			}
			for _, kv := range sd.Attributes {
				v, err := kv.Value.value()
				if err != nil {
					return fmt.Errorf("obs: chrome view: span %s attribute %s: %w", sd.Name, kv.Key, err)
				}
				if kv.Key == outcomeKey {
					ev.Args["outcome"] = v
				} else {
					ev.Args[kv.Key] = v
				}
			}
			events = append(events, ev)
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Unit        string        `json:"displayTimeUnit"`
	}{TraceEvents: events, Unit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// us converts a span of Unix nanoseconds to trace_event microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// nanos parses the span's start and end stamps.
func (sd *SpanData) nanos() (start, end int64, err error) {
	if start, err = strconv.ParseInt(sd.StartNano, 10, 64); err == nil {
		end, err = strconv.ParseInt(sd.EndNano, 10, 64)
	}
	if err != nil {
		err = fmt.Errorf("obs: chrome view: span %s: %w", sd.Name, err)
	}
	return start, end, err
}

// value returns the attribute as a Go string or int64.
func (v AnyValue) value() (any, error) {
	switch {
	case v.Str != nil:
		return *v.Str, nil
	case v.Int != nil:
		return strconv.ParseInt(*v.Int, 10, 64)
	}
	return nil, fmt.Errorf("no stringValue or intValue")
}
