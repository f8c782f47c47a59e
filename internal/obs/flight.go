package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// DefaultFlightEntries is the flight recorder's default ring capacity.
const DefaultFlightEntries = 64

// FlightRecorder keeps the last N finished compile traces in a ring
// buffer and dumps them as lsms-trace/1 documents. Record is
// lock-cheap — one mutex acquisition guarding two pointer-sized
// stores — so it sits on the per-request path of a saturated server
// without showing up in profiles. Traces must be finished (immutable)
// before they are recorded; Snapshot then shares them without copying.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total uint64
}

// NewFlightRecorder returns a recorder holding the last n traces
// (DefaultFlightEntries when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEntries
	}
	return &FlightRecorder{buf: make([]*Trace, n)}
}

// Record adds a finished trace, evicting the oldest when full.
func (r *FlightRecorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Len reports how many traces the ring currently holds.
func (r *FlightRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.total)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	return n
}

// Total reports how many traces have ever been recorded.
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained traces oldest-first. The traces are
// shared, not copied — they are immutable after Finish.
func (r *FlightRecorder) Snapshot() []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		if t := r.buf[(r.next+i)%len(r.buf)]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// WriteJSON dumps the retained traces (oldest-first) as indented JSON —
// the payload of GET /debug/flightrecorder and of lsmsd's SIGQUIT dump:
// {"total_recorded": N, "entries": [<lsms-trace/1 document>, …]}.
func (r *FlightRecorder) WriteJSON(w io.Writer) error {
	return r.WriteJSONFilter(w, nil)
}

// WriteJSONFilter is WriteJSON keeping only traces keep accepts (nil
// keeps everything). Total still reports every trace ever recorded —
// the filter narrows the dump, not the history. Backs the
// /debug/flightrecorder?trace=<id> lookup: a slow request found via a
// latency exemplar is greppable in the ring by its TraceID.
func (r *FlightRecorder) WriteJSONFilter(w io.Writer, keep func(*Trace) bool) error {
	traces := r.Snapshot()
	entries := make([]json.RawMessage, 0, len(traces))
	for _, t := range traces {
		if keep != nil && !keep(t) {
			continue
		}
		doc, err := MarshalTrace(t)
		if err != nil {
			return err
		}
		entries = append(entries, doc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Total   uint64            `json:"total_recorded"`
		Entries []json.RawMessage `json:"entries"`
	}{r.Total(), entries})
}
