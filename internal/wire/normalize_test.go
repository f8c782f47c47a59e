package wire

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/loopgen"
	"repro/internal/sched"
)

// TestNormalizedHashMatchesRaw: Hash on the request Normalize returned
// skips the second normalization, and must still agree with Hash on the
// raw request — over the generator corpus, both golden fixtures, and a
// source-form request.
func TestNormalizedHashMatchesRaw(t *testing.T) {
	size := 60
	if testing.Short() {
		size = 24
	}
	w, err := loopgen.Build(loopgen.Options{Size: size, Seed: 1993})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*Request
	for _, wl := range w.Loops {
		r, err := NewRequest(wl.CL.Loop, "slack", Options{})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		reqs = append(reqs, r)
	}
	for _, path := range []string{"testdata/daxpy.wire.json", "testdata/daxpy.spec.wire.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		r := new(Request)
		if err := json.Unmarshal(b, r); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		reqs = append(reqs, r)
	}
	reqs = append(reqs, &Request{
		Version: Version,
		Machine: "cydra",
		Source: `      subroutine saxpy(n, a, x, y)
      real a, x(1001), y(1001)
      integer n, i
      do i = 1, n
        y(i) = a*x(i) + y(i)
      end do
      end`,
	})
	for i, raw := range reqs {
		want, err := raw.Hash()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		norm, _, err := raw.Normalize()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !norm.normalized || raw.normalized {
			t.Fatalf("request %d: Normalize must mark its result, not its receiver", i)
		}
		got, err := norm.Hash()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got != want {
			t.Errorf("request %d: normalized hash %s, raw hash %s", i, got, want)
		}
		cn, err := norm.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		cr, err := raw.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if string(cn) != string(cr) {
			t.Errorf("request %d: normalized canonical bytes differ from raw", i)
		}
	}
}

// TestOptionsFromDeadlineRoundsUp: a positive deadline never truncates
// to "no deadline" on the wire.
func TestOptionsFromDeadlineRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int64
	}{
		{0, 0},
		{time.Microsecond, 1},
		{500 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{1500 * time.Microsecond, 2},
	} {
		cfg := sched.Config{Budget: sched.Budget{Deadline: tc.d}}
		if got := OptionsFrom(cfg, false).DeadlineMS; got != tc.want {
			t.Errorf("deadline %v: DeadlineMS %d, want %d", tc.d, got, tc.want)
		}
	}
}
