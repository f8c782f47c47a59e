package sched

import "repro/internal/obs"

// DefaultTailEvents is TailRecorder's default capacity: enough to hold
// the whole stream of a typical loop and the interesting end of a
// pathological one.
const DefaultTailEvents = 256

// TailRecorder is an Observer that keeps the last N events of a run in
// a ring buffer — the raw material of a flight-recorder entry. Append
// is an index increment and a struct store; no locking (one recorder
// per run, the Observer contract).
//
// The tail is lossless for runs shorter than the capacity, which is
// what makes flight-recorder replay exact: TextObserver over Tail()
// reproduces the trace of the original run byte for byte (a golden
// test holds this).
type TailRecorder struct {
	buf     []Event
	next    int
	total   int
	wrapped bool
}

// NewTailRecorder returns a recorder keeping the last max events
// (DefaultTailEvents when max <= 0).
func NewTailRecorder(max int) *TailRecorder {
	if max <= 0 {
		max = DefaultTailEvents
	}
	return &TailRecorder{buf: make([]Event, max)}
}

// Event implements Observer.
func (t *TailRecorder) Event(e Event) {
	t.buf[t.next] = e
	t.next++
	t.total++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
}

// Tail returns the retained events oldest-first (a copy).
func (t *TailRecorder) Tail() []Event {
	if !t.wrapped {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// Reset clears the recorder for a new run, keeping the ring's storage
// but zeroing the retained events — a pooled recorder must not carry
// one request's loop and policy names into the next request's pool
// slot.
func (t *TailRecorder) Reset() {
	used := t.buf[:t.next]
	if t.wrapped {
		used = t.buf
	}
	for i := range used {
		used[i] = Event{}
	}
	t.next, t.total, t.wrapped = 0, 0, false
}

// Dropped reports how many events fell off the front of the ring.
func (t *TailRecorder) Dropped() int {
	if !t.wrapped {
		return 0
	}
	return t.total - len(t.buf)
}

// Total reports how many events the run emitted.
func (t *TailRecorder) Total() int { return t.total }

// AttachTail copies the retained events onto an obs.Trace, where they
// export as the root span's OTLP events — the flight recorder's
// retention rule is that failed and degraded compiles carry their event
// tail; callers invoke this only on those outcomes. Each event is named
// by its kind and carries its non-zero fields as attributes, keyed by
// their lower-case field names. Nil-safe on the trace.
func (t *TailRecorder) AttachTail(tr *obs.Trace) {
	if tr == nil || t == nil {
		return
	}
	tail := t.Tail()
	tr.Events = make([]obs.Event, len(tail))
	for i, e := range tail {
		tr.Events[i] = e.traceEvent()
	}
	tr.DroppedEvents = t.Dropped()
}

// traceEvent renders e as an obs.Event. Zero-valued fields are left
// out: they decode back to zero.
func (e Event) traceEvent() obs.Event {
	te := obs.Event{Name: e.Kind.String()}
	str := func(key, v string) {
		if v != "" {
			te.Attrs = append(te.Attrs, obs.Attr{Key: key, Str: v})
		}
	}
	num := func(key string, v int) {
		if v != 0 {
			te.Attrs = append(te.Attrs, obs.Attr{Key: key, Int: int64(v)})
		}
	}
	str("loop", e.Loop)
	str("policy", e.Policy)
	num("ii", e.II)
	num("iter", e.Iter)
	num("op", e.Op)
	num("cycle", e.Cycle)
	num("estart", e.Estart)
	num("lstart", e.Lstart)
	num("ejections", e.Ejections)
	if e.OK {
		num("ok", 1)
	}
	if e.Outcome != AttemptOK {
		str("outcome", e.Outcome.String())
	}
	return te
}

// Replay feeds a recorded event sequence to an observer — flight
// recorder reconstruction: replaying a run's tail through TextObserver
// regenerates the exact trace text of the original run.
func Replay(events []Event, o Observer) {
	for _, e := range events {
		o.Event(e)
	}
}
