package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/sched"
)

// Hash returns the request's content address: "sha256:" plus the hex
// SHA-256 of the canonical bytes with the wall-clock deadline zeroed.
//
// Canonicalization rules (DESIGN.md §5c):
//
//   - The request is normalized to IR form first (unless Normalize
//     returned it), so the source- and IR-forms of the same loop hash
//     identically.
//   - DeadlineMS is excluded (zeroed): a wall-clock deadline changes
//     only whether a compilation finishes, never what it computes, and
//     lsmsd refuses to cache budget-exhausted outcomes — so requests
//     that differ only in deadline may share a cached success.
//   - The deterministic work caps (MaxCentralIters, MaxIIAttempts) ARE
//     included: they change the outcome reproducibly.
//   - Scheduler, machine, Degrade, and every remaining Option are
//     included: each changes the schedule the request denotes. An
//     inline machine_spec is included whole — two requests carrying
//     different target descriptions can never share a cache entry —
//     and the version string is canonicalized first, so v1 and v2
//     envelopes of the same request hash identically.
func (r *Request) Hash() (string, error) {
	n, err := r.normalForm()
	if err != nil {
		return "", err
	}
	h := *n
	h.Options.DeadlineMS = 0
	b, err := json.Marshal(&h)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// Effort is the deterministic subset of sched.Stats: the Section 6
// counters without the wall-clock fields, so two runs of the same
// request compare bit-identically.
type Effort struct {
	IIAttempts   int   `json:"ii_attempts"`
	CentralIters int64 `json:"central_iters"`
	Placements   int64 `json:"placements"`
	Forces       int64 `json:"forces"`
	Ejections    int64 `json:"ejections"`
	Restarts     int64 `json:"restarts"`
}

// EffortOf extracts the deterministic counters of a run.
func EffortOf(st sched.Stats) Effort {
	return Effort{
		IIAttempts:   st.IIAttempts,
		CentralIters: st.CentralIters,
		Placements:   st.Placements,
		Forces:       st.Forces,
		Ejections:    st.Ejections,
		Restarts:     st.Restarts,
	}
}

// Bounds mirrors mii.Bounds on the wire.
type Bounds struct {
	ResMII int `json:"res_mii"`
	RecMII int `json:"rec_mii"`
	MII    int `json:"mii"`
}

// Response is lsmsd's reply to POST /v1/compile. On success (and on a
// deterministic infeasible verdict) the body is cacheable and replayed
// byte-identically for later identical requests; the X-Lsmsd-Cache
// response header — not the body — distinguishes hit from miss.
type Response struct {
	Hash      string `json:"hash"`
	Loop      string `json:"loop"`
	Machine   string `json:"machine"`
	Scheduler string `json:"scheduler"`
	OK        bool   `json:"ok"`
	Degraded  bool   `json:"degraded,omitempty"`
	Bounds    Bounds `json:"bounds"`
	II        int    `json:"ii,omitempty"`
	Length    int    `json:"length,omitempty"`
	Stages    int    `json:"stages,omitempty"`
	// Times is the issue cycle of each op (indexed like Loop.Ops).
	Times   []int  `json:"times,omitempty"`
	MaxLive int    `json:"max_live,omitempty"`
	MinAvg  int    `json:"min_avg,omitempty"`
	ICR     int    `json:"icr,omitempty"`
	GPRs    int    `json:"gprs,omitempty"`
	Effort  Effort `json:"effort"`
	// Refined marks a response whose schedule was upgraded in place by
	// lsmsd's background exact-refinement tier: same request hash,
	// strictly better (II, MaxLive) than the synchronous answer.
	Refined bool   `json:"refined,omitempty"`
	Error   *Error `json:"error,omitempty"`
}

// The Error.Kind values and their HTTP status mapping (README
// "Running the service").
const (
	ErrKindBadRequest       = "bad-request"       // 400
	ErrKindUnknownScheduler = "unknown-scheduler" // 400
	ErrKindUnsupportedOp    = "unsupported-op"    // 422
	ErrKindInfeasible       = "infeasible"        // 422
	ErrKindBudgetExhausted  = "budget-exhausted"  // 504
	ErrKindOverloaded       = "overloaded"        // 429
	ErrKindPanic            = "panic"             // 500
	ErrKindInternal         = "internal"          // 500
	ErrKindShuttingDown     = "shutting-down"     // 503
)

// Error reports a failed compilation with its typed evidence.
type Error struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	Reason  string `json:"reason,omitempty"` // sched.BudgetError reason
	MII     int    `json:"mii,omitempty"`
	LastII  int    `json:"last_ii,omitempty"`
}
