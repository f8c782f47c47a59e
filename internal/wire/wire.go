// Package wire defines the canonical serialized form of a compilation
// request: the loop IR (operations, predicates, dependence arcs with
// their (latency, ω) labels), the machine selection, the scheduling
// policy, and the governed-pipeline options of core.Options /
// sched.Config. The encoding is a deterministic, versioned JSON
// document — structs only, no maps, fields in declaration order — so
// the same request always serializes to the same bytes, and a SHA-256
// over the canonical bytes (see Hash) is a stable content address for
// the work the request describes. lsmsd keys its result cache and its
// singleflight deduplication on that hash; lsms -emit json prints it.
//
// # What is (and is not) encoded
//
// A Loop document carries exactly the inputs of scheduling: values
// (register file, type, live-out flags, literal constants), operations
// (opcode mnemonic, operand (value, ω) pairs, result, predicate guard),
// and the non-flow dependence arcs (memory and ordering, with latency
// and ω). Flow arcs, functional-unit assignments, and recurrence marks
// are deliberately omitted: ir.Loop.Finalize re-derives all three
// deterministically from the operands and the machine description, so
// encoding them would only create room for inconsistent documents.
// DecodeLoop therefore returns a finalized loop that schedules
// bit-identically to the original (the differential tests assert this
// over the loopgen corpus).
//
// # Versioning
//
// Version is "lsms-wire/2", which added machine_spec: a request may
// name a registered target or embed a declarative machine.Spec inline,
// and the spec is part of the canonical bytes — distinct machines can
// never share a content address. Decoders still accept "lsms-wire/1"
// envelopes (a strict subset: no machine_spec) and Normalize
// re-versions them to 2, so the v1 and v2 forms of the same request
// share one hash and one cache entry. Any further change to field
// names, field order, or canonicalization rules must bump the version.
// The golden fixtures under testdata/ pin version 2's exact bytes.
package wire

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/frontend"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Version is the wire-format version emitted by this package.
const Version = "lsms-wire/2"

// VersionV1 is the previous wire format, still accepted on decode.
// It differs from version 2 only by lacking machine_spec; Normalize
// canonicalizes v1 envelopes to Version.
const VersionV1 = "lsms-wire/1"

// Request is one compilation request. Exactly one of Source or Loop
// must be set: Source carries a mini-FORTRAN subroutine (LoopIndex
// selects which innermost loop; the server canonicalizes it to IR form
// before hashing, so the source- and IR-forms of the same loop share a
// content address), Loop carries the IR directly.
//
// The target is either Machine — the name of a machine registered with
// the server (see machine.Register, GET /v1/machines) — or
// MachineSpec, a full declarative description carried in the request,
// for targets the server has never heard of. When both are present
// Machine must equal the spec's name; the spec wins (it is what
// actually builds the desc) and is folded into the content hash.
type Request struct {
	Version     string        `json:"version"`
	Machine     string        `json:"machine"`
	MachineSpec *machine.Spec `json:"machine_spec,omitempty"`
	Scheduler   string        `json:"scheduler,omitempty"`
	Options     Options       `json:"options"`
	Source      string        `json:"source,omitempty"`
	LoopIndex   int           `json:"loop_index,omitempty"`
	Loop        *Loop         `json:"loop,omitempty"`

	// normalized marks a request Normalize returned, so Hash and
	// Canonical do not redo the frontend compile or loop decode.
	normalized bool
}

// Options is the serializable subset of sched.Config plus the
// core.Options knobs a remote caller may set. DeadlineMS is wall-clock
// and therefore excluded from the content hash (see Hash). A retired
// "no_fast_paths" key is accepted and ignored: the direct and optimized
// paths compute identical results, so it never changed a response.
type Options struct {
	IncrementByOne   bool  `json:"increment_by_one,omitempty"`
	EjectBudgetPerOp int   `json:"eject_budget_per_op,omitempty"`
	MinEjectBudget   int   `json:"min_eject_budget,omitempty"`
	MaxII            int   `json:"max_ii,omitempty"`
	StartII          int   `json:"start_ii,omitempty"`
	DeadlineMS       int64 `json:"deadline_ms,omitempty"`
	MaxCentralIters  int64 `json:"max_central_iters,omitempty"`
	MaxIIAttempts    int   `json:"max_ii_attempts,omitempty"`
	Degrade          bool  `json:"degrade,omitempty"`
}

// SchedConfig converts the wire options to a sched.Config (Observer
// and Arena are process-local and stay nil).
func (o Options) SchedConfig() sched.Config {
	return sched.Config{
		IncrementByOne:   o.IncrementByOne,
		EjectBudgetPerOp: o.EjectBudgetPerOp,
		MinEjectBudget:   o.MinEjectBudget,
		MaxII:            o.MaxII,
		StartII:          o.StartII,
		Budget: sched.Budget{
			Deadline:        time.Duration(o.DeadlineMS) * time.Millisecond,
			MaxCentralIters: o.MaxCentralIters,
			MaxIIAttempts:   o.MaxIIAttempts,
		},
	}
}

// OptionsFrom captures the serializable parts of a sched.Config. A
// positive deadline rounds up to whole milliseconds, so a sub-millisecond
// deadline stays a deadline on the wire.
func OptionsFrom(cfg sched.Config, degrade bool) Options {
	deadlineMS := int64(0)
	if d := cfg.Budget.Deadline; d > 0 {
		deadlineMS = int64((d + time.Millisecond - 1) / time.Millisecond)
	}
	return Options{
		IncrementByOne:   cfg.IncrementByOne,
		EjectBudgetPerOp: cfg.EjectBudgetPerOp,
		MinEjectBudget:   cfg.MinEjectBudget,
		MaxII:            cfg.MaxII,
		StartII:          cfg.StartII,
		DeadlineMS:       deadlineMS,
		MaxCentralIters:  cfg.Budget.MaxCentralIters,
		MaxIIAttempts:    cfg.Budget.MaxIIAttempts,
		Degrade:          degrade,
	}
}

// Loop is the wire form of an ir.Loop.
type Loop struct {
	Name           string  `json:"name"`
	NumBB          int     `json:"num_bb,omitempty"`
	TripCount      int     `json:"trip_count,omitempty"`
	HasConditional bool    `json:"has_conditional,omitempty"`
	Values         []Value `json:"values"`
	Ops            []Op    `json:"ops"`
	// Deps holds only the non-flow arcs (memory and ordering); flow
	// arcs are re-derived from operands by ir.Loop.Finalize.
	Deps []Dep `json:"deps,omitempty"`
}

// Value is the wire form of an ir.Value. Defs are derived from the ops.
type Value struct {
	Name    string `json:"name"`
	File    string `json:"file"` // "RR" | "GPR" | "ICR"
	Type    string `json:"type"` // "int" | "float" | "addr" | "pred"
	LiveOut bool   `json:"live_out,omitempty"`
	Const   *Const `json:"const,omitempty"` // present iff ConstValid
}

// Const is a literal; the field matching the value's type is the
// meaningful one (zero values are omitted — absence means zero).
type Const struct {
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	B bool    `json:"b,omitempty"`
}

// Op is the wire form of an ir.Op. Result is a value index or -1.
type Op struct {
	Opcode  string    `json:"opcode"`
	Args    []Operand `json:"args,omitempty"`
	Result  int       `json:"result"`
	Pred    *Operand  `json:"pred,omitempty"`
	PredNeg bool      `json:"pred_neg,omitempty"`
}

// Operand is a (value index, omega) read.
type Operand struct {
	Val   int `json:"val"`
	Omega int `json:"omega,omitempty"`
}

// Dep is a non-flow dependence arc.
type Dep struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Latency int    `json:"latency"`
	Omega   int    `json:"omega,omitempty"`
	Kind    string `json:"kind"` // "mem" | "order"
}

var fileByName = map[string]ir.RegFile{
	ir.RR.String(): ir.RR, ir.GPR.String(): ir.GPR, ir.ICR.String(): ir.ICR,
}

var typeByName = map[string]ir.Type{
	ir.Int.String(): ir.Int, ir.Float.String(): ir.Float,
	ir.Addr.String(): ir.Addr, ir.Pred.String(): ir.Pred,
}

var depKindByName = map[string]ir.DepKind{
	ir.DepMem.String(): ir.DepMem, ir.DepOrder.String(): ir.DepOrder,
}

// EncodeLoop converts a finalized ir.Loop to its wire form.
func EncodeLoop(l *ir.Loop) (*Loop, error) {
	if !l.Finalized() {
		return nil, fmt.Errorf("wire: loop %s not finalized", l.Name)
	}
	w := &Loop{
		Name:           l.Name,
		NumBB:          l.NumBB,
		TripCount:      l.TripCount,
		HasConditional: l.HasConditional,
	}
	for _, v := range l.Values {
		wv := Value{
			Name:    v.Name,
			File:    v.File.String(),
			Type:    v.Type.String(),
			LiveOut: v.LiveOut,
		}
		if v.ConstValid {
			wv.Const = &Const{I: v.Const.I, F: v.Const.F, B: v.Const.B}
		}
		w.Values = append(w.Values, wv)
	}
	for _, op := range l.Ops {
		wo := Op{
			Opcode:  op.Opcode.String(),
			Result:  int(op.Result),
			PredNeg: op.PredNeg,
		}
		for _, a := range op.Args {
			wo.Args = append(wo.Args, Operand{Val: int(a.Val), Omega: a.Omega})
		}
		if op.Pred != nil {
			wo.Pred = &Operand{Val: int(op.Pred.Val), Omega: op.Pred.Omega}
		}
		w.Ops = append(w.Ops, wo)
	}
	for _, d := range l.Deps {
		if d.Kind == ir.DepFlow {
			continue // re-derived by Finalize
		}
		w.Deps = append(w.Deps, Dep{
			From: int(d.From), To: int(d.To),
			Latency: d.Latency, Omega: d.Omega,
			Kind: d.Kind.String(),
		})
	}
	return w, nil
}

// DecodeLoop rebuilds (and finalizes) an ir.Loop from its wire form.
// The returned loop schedules bit-identically to the loop EncodeLoop
// consumed: flow arcs, FU assignment, and recurrence marks are
// re-derived deterministically from the document and the machine.
func (w *Loop) DecodeLoop(m *machine.Desc) (*ir.Loop, error) {
	if w == nil {
		return nil, fmt.Errorf("wire: no loop document")
	}
	l := ir.NewLoop(w.Name, m)
	if w.NumBB > 0 {
		l.NumBB = w.NumBB
	}
	l.TripCount = w.TripCount
	l.HasConditional = w.HasConditional
	for i, wv := range w.Values {
		file, ok := fileByName[wv.File]
		if !ok {
			return nil, fmt.Errorf("wire: value %d (%s): unknown register file %q", i, wv.Name, wv.File)
		}
		typ, ok := typeByName[wv.Type]
		if !ok {
			return nil, fmt.Errorf("wire: value %d (%s): unknown type %q", i, wv.Name, wv.Type)
		}
		v := l.NewValue(wv.Name, file, typ)
		v.LiveOut = wv.LiveOut
		if wv.Const != nil {
			v.Const = ir.Scalar{I: wv.Const.I, F: wv.Const.F, B: wv.Const.B}
			v.ConstValid = true
		}
	}
	nv := len(l.Values)
	checkOperand := func(opIdx int, o Operand) error {
		if o.Val < 0 || o.Val >= nv {
			return fmt.Errorf("wire: op %d reads out-of-range value %d", opIdx, o.Val)
		}
		return nil
	}
	for i, wo := range w.Ops {
		code, ok := machine.OpcodeByName(wo.Opcode)
		if !ok || code == machine.Nop {
			return nil, fmt.Errorf("wire: op %d: unknown opcode %q", i, wo.Opcode)
		}
		if !m.Supports(code) {
			// The decode boundary is where "this target cannot run these
			// ops" becomes a client error; the typed verdict lets servers
			// answer 422 instead of treating it as an internal failure.
			return nil, &machine.UnsupportedOpError{Machine: m.Name, Op: code}
		}
		args := make([]ir.Operand, 0, len(wo.Args))
		for _, a := range wo.Args {
			if err := checkOperand(i, a); err != nil {
				return nil, err
			}
			args = append(args, ir.Operand{Val: ir.ValueID(a.Val), Omega: a.Omega})
		}
		result := ir.ValueID(wo.Result)
		if wo.Result != int(ir.None) && (wo.Result < 0 || wo.Result >= nv) {
			return nil, fmt.Errorf("wire: op %d defines out-of-range value %d", i, wo.Result)
		}
		op := l.NewOp(code, args, result)
		if wo.Pred != nil {
			if err := checkOperand(i, *wo.Pred); err != nil {
				return nil, err
			}
			op.Pred = &ir.Operand{Val: ir.ValueID(wo.Pred.Val), Omega: wo.Pred.Omega}
			op.PredNeg = wo.PredNeg
		}
	}
	for i, d := range w.Deps {
		kind, ok := depKindByName[d.Kind]
		if !ok {
			return nil, fmt.Errorf("wire: dep %d: unknown kind %q", i, d.Kind)
		}
		if d.From < 0 || d.From >= len(l.Ops) || d.To < 0 || d.To >= len(l.Ops) {
			return nil, fmt.Errorf("wire: dep %d references missing op", i)
		}
		l.AddDep(ir.Dep{
			From: ir.OpID(d.From), To: ir.OpID(d.To),
			Latency: d.Latency, Omega: d.Omega, Kind: kind,
		})
	}
	if err := l.Finalize(); err != nil {
		return nil, fmt.Errorf("wire: decoded loop invalid: %w", err)
	}
	return l, nil
}

// NewRequest builds an IR-form request for one finalized loop. If the
// loop's machine is not registered under its name — a custom target
// loaded from a spec file, say — and it carries a declarative spec,
// the spec is embedded so any server can build the target from the
// request alone.
func NewRequest(l *ir.Loop, scheduler string, opt Options) (*Request, error) {
	wl, err := EncodeLoop(l)
	if err != nil {
		return nil, err
	}
	r := &Request{
		Version:   Version,
		Machine:   l.Mach.Name,
		Scheduler: scheduler,
		Options:   opt,
		Loop:      wl,
	}
	if _, ok := machine.Lookup(l.Mach.Name); !ok {
		r.MachineSpec = l.Mach.Spec()
	}
	return r, nil
}

// Desc resolves the request's target: the inline spec if present
// (built and validated), the registry otherwise.
func (r *Request) Desc() (*machine.Desc, error) {
	if r.MachineSpec != nil {
		if r.Machine != "" && r.Machine != r.MachineSpec.Name {
			return nil, fmt.Errorf("wire: machine %q does not match inline spec %q", r.Machine, r.MachineSpec.Name)
		}
		return r.MachineSpec.Build()
	}
	m, ok := machine.Lookup(r.Machine)
	if !ok {
		return nil, fmt.Errorf("wire: unknown machine %q", r.Machine)
	}
	return m, nil
}

// Validate checks the request's envelope (version, machine or inline
// spec, exactly one payload form) without touching the payload.
func (r *Request) Validate() error {
	switch r.Version {
	case Version:
	case VersionV1:
		if r.MachineSpec != nil {
			return fmt.Errorf("wire: inline machine specs require version %q (request is %q)", Version, r.Version)
		}
	default:
		return fmt.Errorf("wire: unsupported version %q (want %q)", r.Version, Version)
	}
	if _, err := r.Desc(); err != nil {
		return err
	}
	if (r.Source == "") == (r.Loop == nil) {
		return fmt.Errorf("wire: exactly one of source or loop must be set")
	}
	return nil
}

// Normalize resolves the request to IR form: a source-form request is
// compiled (frontend) and its LoopIndex-th innermost loop replaces the
// source, so source- and IR-form requests for the same loop
// canonicalize — and content-hash — identically. An IR-form request is
// round-tripped through DecodeLoop to validate it. The envelope is
// canonicalized too — a v1 version string becomes Version, and an
// inline spec fills the machine name — so every accepted way of
// writing a request converges on one set of canonical bytes. The
// receiver is not modified. The returned request is marked normalized:
// Hash and Canonical use it as is rather than normalizing it again.
func (r *Request) Normalize() (*Request, *ir.Loop, error) {
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	m, err := r.Desc()
	if err != nil {
		return nil, nil, err
	}
	n := *r
	n.Version = Version
	n.Machine = m.Name
	n.normalized = true
	if r.Source != "" {
		_, loops, err := frontend.Compile(r.Source, m)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: compiling source: %w", err)
		}
		if r.LoopIndex < 0 || r.LoopIndex >= len(loops) {
			return nil, nil, fmt.Errorf("wire: loop_index %d out of range (%d innermost loops)", r.LoopIndex, len(loops))
		}
		cl := loops[r.LoopIndex]
		if cl.Ineligible != nil {
			return nil, nil, fmt.Errorf("wire: loop %d not modulo-schedulable: %w", r.LoopIndex, cl.Ineligible)
		}
		wl, err := EncodeLoop(cl.Loop)
		if err != nil {
			return nil, nil, err
		}
		n.Source, n.LoopIndex, n.Loop = "", 0, wl
		return &n, cl.Loop, nil
	}
	l, err := r.Loop.DecodeLoop(m)
	if err != nil {
		return nil, nil, err
	}
	return &n, l, nil
}

// Canonical returns the canonical bytes of the request: the JSON
// encoding of its normalized (IR) form. Two requests describing the
// same work — regardless of source vs IR form — have identical
// canonical bytes.
func (r *Request) Canonical() ([]byte, error) {
	n, err := r.normalForm()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// normalForm returns r itself when Normalize produced it, and r's
// normalized form otherwise.
func (r *Request) normalForm() (*Request, error) {
	if r.normalized {
		return r, nil
	}
	n, _, err := r.Normalize()
	return n, err
}
