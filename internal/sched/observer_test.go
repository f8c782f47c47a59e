package sched

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/ir"
	"repro/internal/machine"
)

// recorder captures the typed event stream of one run.
type recorder struct {
	events []Event
}

func (r *recorder) Event(e Event) { r.events = append(r.events, e) }

// observedSchedulers runs every policy through its context entry point
// with the given config.
func observedSchedulers(cfg Config) map[string]func(*ir.Loop) (*Result, error) {
	return map[string]func(*ir.Loop) (*Result, error){
		"slack":    func(l *ir.Loop) (*Result, error) { return schedule(Slack(cfg), l) },
		"slack-1d": func(l *ir.Loop) (*Result, error) { return schedule(SlackUnidirectional(cfg), l) },
		"cydrome":  func(l *ir.Loop) (*Result, error) { return schedule(Cydrome(cfg), l) },
		"list":     func(l *ir.Loop) (*Result, error) { return schedule(List(cfg), l) },
	}
}

// The event stream of a (loop, policy, Config) triple is part of the
// observer contract: two runs must produce identical streams.
func TestEventStreamDeterministic(t *testing.T) {
	m := machine.Cydra()
	for _, l := range fixture.All(m) {
		var streams [][]Event
		for rep := 0; rep < 2; rep++ {
			rec := &recorder{}
			res, err := schedule(Slack(Config{Observer: rec}), l)
			if err != nil || !res.OK() {
				t.Fatalf("%s: %v", l.Name, err)
			}
			streams = append(streams, rec.events)
		}
		if !reflect.DeepEqual(streams[0], streams[1]) {
			t.Fatalf("%s: event stream differs between identical runs", l.Name)
		}
		if len(streams[0]) == 0 {
			t.Fatalf("%s: no events observed", l.Name)
		}
	}
}

// Every policy emits a well-formed stream: attempts bracketed by
// AttemptStart/AttemptEnd, the last attempt successful, loop and policy
// stamped on every event.
func TestEventStreamWellFormed(t *testing.T) {
	m := machine.Cydra()
	for _, name := range []string{"slack", "slack-1d", "cydrome", "list"} {
		for _, l := range fixture.All(m) {
			rec := &recorder{}
			res, err := observedSchedulers(Config{Observer: rec})[name](l)
			if err != nil || !res.OK() {
				t.Fatalf("%s/%s: %v", name, l.Name, err)
			}
			depth := 0
			var last Event
			for _, e := range rec.events {
				if e.Loop != l.Name {
					t.Fatalf("%s/%s: event stamped with loop %q", name, l.Name, e.Loop)
				}
				switch e.Kind {
				case EvAttemptStart:
					if depth != 0 {
						t.Fatalf("%s/%s: nested attempt", name, l.Name)
					}
					depth++
				case EvAttemptEnd:
					if depth != 1 {
						t.Fatalf("%s/%s: unbalanced attempt end", name, l.Name)
					}
					depth--
				case EvPlace, EvForce, EvEject, EvRestart:
					if depth != 1 && e.Kind != EvRestart {
						t.Fatalf("%s/%s: %s outside an attempt", name, l.Name, e.Kind)
					}
				}
				last = e
			}
			if depth != 0 {
				t.Fatalf("%s/%s: attempt left open", name, l.Name)
			}
			if last.Kind != EvAttemptEnd || !last.OK {
				t.Fatalf("%s/%s: stream does not end with a successful attempt (last %s)", name, l.Name, last.Kind)
			}
		}
	}
}

// TextObserver must reproduce the retired Config.Trace hook's output
// byte-for-byte. testdata/legacy_trace.golden holds that hook's output
// for every fixture loop under both configs below, each run headed by a
// "# config N loop NAME" line; it pins the lsms -trace=text bytes.
func TestTextObserverMatchesLegacyTrace(t *testing.T) {
	want, err := os.ReadFile("testdata/legacy_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	m := machine.Cydra()
	var got bytes.Buffer
	// A tiny ejection budget makes divide backtrack hard, covering the
	// "forced" lines as well as the "chose" lines.
	for i, cfg := range []Config{{}, {EjectBudgetPerOp: 1, MinEjectBudget: 1}} {
		for _, l := range fixture.All(m) {
			fmt.Fprintf(&got, "# config %d loop %s\n", i, l.Name)
			cfg.Observer = TextObserver(&got)
			if _, err := schedule(Slack(cfg), l); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("TextObserver output differs from testdata/legacy_trace.golden\ngot:\n%s", got.String())
	}
}

// Concurrent runs with per-run observers see the same stream a serial
// run does — the bench harness's determinism requirement.
func TestEventStreamIdenticalUnderConcurrency(t *testing.T) {
	m := machine.Cydra()
	loops := fixture.All(m)
	serial := make([][]Event, len(loops))
	for i, l := range loops {
		rec := &recorder{}
		if _, err := schedule(Slack(Config{Observer: rec}), l); err != nil {
			t.Fatal(err)
		}
		serial[i] = rec.events
	}
	concurrent := make([][]Event, len(loops))
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{}
			if _, err := schedule(Slack(Config{Observer: rec}), l); err != nil {
				t.Error(err)
				return
			}
			concurrent[i] = rec.events
		}()
	}
	wg.Wait()
	for i := range loops {
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Fatalf("%s: concurrent event stream differs from serial", loops[i].Name)
		}
	}
}

// Metrics observers fed per-loop and merged in loop order must agree
// with one observer watching a serial sweep.
func TestMetricsMergeMatchesSerial(t *testing.T) {
	m := machine.Cydra()
	loops := fixture.All(m)
	whole := &Metrics{}
	for _, l := range loops {
		if _, err := schedule(Slack(Config{Observer: whole}), l); err != nil {
			t.Fatal(err)
		}
	}
	merged := &Metrics{}
	for _, l := range loops {
		per := &Metrics{}
		if _, err := schedule(Slack(Config{Observer: per}), l); err != nil {
			t.Fatal(err)
		}
		merged.Merge(per)
	}
	if !reflect.DeepEqual(whole, merged) {
		t.Fatalf("merged metrics differ from serial aggregate:\nserial %+v\nmerged %+v", whole, merged)
	}
	if merged.Attempts == 0 || merged.Events[EvPlace] == 0 {
		t.Fatalf("metrics did not count anything: %+v", merged)
	}
}

// The outcome dimension survives Merge and always reconciles with the
// flat Attempts/AttemptsOK counters — the dimension is additive, never
// an alternative count. (Mid-attempt exhaustion and cancellation
// specifics are covered in outcome_test.go.)
func TestMetricsOutcomeDimension(t *testing.T) {
	m := machine.Cydra()
	merged := &Metrics{}
	for _, l := range fixture.All(m) {
		per := &Metrics{}
		cfg := tinyEject
		cfg.Observer = per
		if _, err := schedule(Slack(cfg), l); err != nil {
			t.Fatal(err)
		}
		merged.Merge(per)
	}
	var total int64
	for _, n := range merged.AttemptOutcomes {
		total += n
	}
	if total != merged.Attempts {
		t.Fatalf("outcome total %d != attempts %d", total, merged.Attempts)
	}
	if merged.AttemptOutcomes[AttemptOK] != merged.AttemptsOK {
		t.Fatalf("ok outcomes %d != AttemptsOK %d",
			merged.AttemptOutcomes[AttemptOK], merged.AttemptsOK)
	}
	counts := merged.OutcomeCounts()
	if counts[AttemptCentralIters.String()] != 0 || counts[AttemptCanceled.String()] != 0 {
		t.Fatalf("unbudgeted, uncancelled sweep filed budget/cancel outcomes: %v", counts)
	}
	if counts[AttemptGiveUp.String()] == 0 {
		t.Fatalf("tinyEject sweep recorded no give-ups: %v", counts)
	}
}
