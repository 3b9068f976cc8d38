// Package fleet distributes a tuning run's evaluations across worker
// processes with a claim/lease/heartbeat/report protocol.
//
// The coordinator owns everything stateful: the search loop (it runs the
// ordinary funcytuner pipeline with Options.Evaluator pointing at the
// fleet), checkpointing, quarantine, and the deterministic merge of
// evaluation outcomes. Workers are pure claim executors: each holds an
// EvalService — a session configured identically to the coordinator's —
// and every claim's outcome is a pure function of (spec, phase, sample,
// CVs), so re-executing a claim anywhere yields bit-identical results.
// That purity is the whole fault-tolerance story: a dead, stalled or
// partitioned worker just means its lease expires and the claim is
// re-dispatched, and the merged Report.Fingerprint cannot tell.
//
// Lease state machine (per task):
//
//	queued --claim--> leased --report(epoch ok)--> done
//	   ^                 |
//	   |                 +--lease expires / heartbeat stops--+
//	   +--requeue (backoff, epoch burned)--------------------+
//
// Epoch rules: every lease grant increments the task's epoch, and a
// report or heartbeat is valid only if it carries the epoch of the
// currently live lease. A worker that stalls past its deadline and
// reports late therefore presents a burned epoch and is rejected;
// the accepted report — there is exactly one per task — is the only one
// whose cost and trace span enter the session. Workers self-fence: a
// heartbeat rejection tells the worker its lease is gone, and it abandons
// the evaluation rather than report a result nobody will accept.
package fleet

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/fsx"
	"funcytuner/internal/trace"
)

// Spec identifies a tuning run precisely enough for a worker to rebuild
// the coordinator's session bit-for-bit: the deterministic inputs only.
// Scheduling knobs (workers, gates, checkpoint cadence) deliberately
// don't travel — they can differ per process without affecting results.
// Zero fields take the funcytuner facade defaults, except Seed, which
// the coordinator must always resolve before enqueueing work.
type Spec struct {
	// Benchmark names a built-in program (LULESH, CL, AMG, ...).
	Benchmark string `json:"benchmark"`
	// Machine is the platform model (opteron, sandybridge, broadwell).
	Machine string `json:"machine"`
	// Samples is the evaluation budget K; TopX the CFR pruning width.
	Samples int `json:"samples,omitempty"`
	TopX    int `json:"topx,omitempty"`
	// Seed names the run. Never empty on the wire: equal seeds are what
	// make coordinator and worker sessions interchangeable.
	Seed string `json:"seed"`
	// FaultRate scales the default injected evaluation-fault mix.
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Technique is the coordinator's search technique ("" = cfr). Claim
	// execution is technique-agnostic — workers replay whatever CVs a
	// claim carries — but recovery needs it: a journal-recovered job
	// must re-run under the technique that issued the journaled claims,
	// or none of them would be served.
	Technique string `json:"technique,omitempty"`
}

// validate rejects specs a worker could not faithfully execute.
func (sp Spec) validate() error {
	if sp.Benchmark == "" {
		return fmt.Errorf("fleet: spec benchmark is empty")
	}
	if sp.Machine == "" {
		return fmt.Errorf("fleet: spec machine is empty")
	}
	if sp.Seed == "" {
		return fmt.Errorf("fleet: spec seed is empty (the coordinator must resolve it)")
	}
	if sp.Samples < 0 || sp.TopX < 0 || sp.FaultRate < 0 {
		return fmt.Errorf("fleet: spec has negative budget or fault rate")
	}
	return nil
}

// Task is one leased evaluation claim on the wire.
type Task struct {
	// ID uniquely names the task within the coordinator's lifetime.
	ID string `json:"id"`
	// Job is the owning tuning job's identity (for logs and service
	// caching on the worker).
	Job string `json:"job"`
	// Spec is the owning run's deterministic identity.
	Spec Spec `json:"spec"`
	// Phase and Sample locate the claim in the pipeline; CVs holds one
	// row per CV, each a lowercase hex string with two digits per flag
	// (the flag's value index). A JSON string decodes far cheaper than
	// an array of ints, and is as wide: "05" versus "5,". The encoding
	// has no version negotiation, so coordinator and workers must run
	// the same build.
	Phase  string   `json:"phase"`
	Sample int      `json:"sample"`
	CVs    []string `json:"cvs"`
	// Epoch is the lease generation. Heartbeats and the report must echo
	// it; any other value is stale.
	Epoch int `json:"epoch"`
	// LeaseMillis is the lease TTL; the worker must report (or keep
	// heartbeating) within it. HeartbeatMillis is the cadence the
	// coordinator expects.
	LeaseMillis     int64 `json:"lease_millis"`
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// Outcome is one completed evaluation on the wire. Floats travel as
// lossless hex-float strings (the checkpoint/trace encoding), so the
// coordinator merges exactly the bits the worker measured — including
// the +Inf of lost evaluations.
type Outcome struct {
	// PerModule are the per-coupling-unit times of a collect claim.
	PerModule []string `json:"per_module,omitempty"`
	// Total is the measured end-to-end time.
	Total string `json:"total"`
	// Cost is the evaluation's cost-ledger delta.
	Cost core.CostSnapshot `json:"cost"`
	// Quarantined lists poisoned CV fingerprints as hex strings.
	Quarantined []string `json:"quarantined,omitempty"`
	// Span is the evaluation's trace span as trace.EncodeSpan rows, one
	// per event. The rows carry no phase or sample: both are the task's,
	// which the coordinator already knows.
	Span []string `json:"span,omitempty"`
}

// encodeCVs renders CVs as wire rows: each CV's value indices, one
// byte per flag, hex-encoded.
func encodeCVs(cvs []flagspec.CV) []string {
	out := make([]string, len(cvs))
	var raw, digits []byte
	for i, cv := range cvs {
		raw = raw[:0]
		for f := 0; f < cv.Space().NumFlags(); f++ {
			raw = append(raw, byte(cv.Value(f)))
		}
		digits = hex.AppendEncode(digits[:0], raw)
		out[i] = string(digits)
	}
	return out
}

// decodeCVs rebuilds CVs from wire rows against the worker's space,
// rejecting malformed hex and any row space.Make refuses (wrong flag
// count, index out of range).
func decodeCVs(space *flagspec.Space, rows []string) ([]flagspec.CV, error) {
	out := make([]flagspec.CV, len(rows))
	var vals []int
	for i, row := range rows {
		raw, err := hex.DecodeString(row)
		if err != nil {
			return nil, fmt.Errorf("fleet: CV %d: %w", i, err)
		}
		vals = vals[:0]
		for _, v := range raw {
			vals = append(vals, int(v))
		}
		cv, err := space.Make(vals)
		if err != nil {
			return nil, fmt.Errorf("fleet: CV %d: %w", i, err)
		}
		out[i] = cv
	}
	return out, nil
}

// encodeOutcome converts a completed evaluation of the claim (phase,
// sample) to its wire form. It fails only if the trace span is not the
// detached span of that claim.
func encodeOutcome(phase string, sample int, out core.EvalOutcome) (*Outcome, error) {
	span, err := trace.EncodeSpan(phase, sample, out.Events)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding span of %s/%d: %w", phase, sample, err)
	}
	w := &Outcome{
		Total: fsx.HexFloat(out.Total),
		Cost:  out.Cost,
		Span:  span,
	}
	for _, v := range out.PerModule {
		w.PerModule = append(w.PerModule, fsx.HexFloat(v))
	}
	for _, k := range out.Quarantined {
		w.Quarantined = append(w.Quarantined, strconv.FormatUint(k, 16))
	}
	return w, nil
}

// decode is the inverse of encodeOutcome for the claim (phase, sample),
// validating every field the way a checkpoint is validated: no NaN
// time, no negative cost counter.
func (o *Outcome) decode(phase string, sample int) (core.EvalOutcome, error) {
	var out core.EvalOutcome
	total, err := fsx.ParseHexFloat(o.Total)
	if err != nil {
		return out, fmt.Errorf("fleet: bad total %q: %v", o.Total, err)
	}
	out.Total = total
	for i, s := range o.PerModule {
		v, err := fsx.ParseHexFloat(s)
		if err != nil {
			return out, fmt.Errorf("fleet: bad per-module time %d %q: %v", i, s, err)
		}
		out.PerModule = append(out.PerModule, v)
	}
	for i, s := range o.Quarantined {
		k, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return out, fmt.Errorf("fleet: bad quarantine key %d %q: %v", i, s, err)
		}
		out.Quarantined = append(out.Quarantined, k)
	}
	if err := o.Cost.Validate(); err != nil {
		return out, fmt.Errorf("fleet: bad cost: %w", err)
	}
	out.Cost = o.Cost
	if out.Events, err = trace.DecodeSpan(phase, sample, o.Span); err != nil {
		return out, fmt.Errorf("fleet: bad span: %w", err)
	}
	return out, nil
}

// heartbeatRequest extends a live lease.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	Task   string `json:"task"`
	Epoch  int    `json:"epoch"`
}

// claimBatchRequest asks for up to Max tasks in one round-trip.
// WaitMillis bounds the long-poll; the coordinator answers 204 when
// nothing becomes claimable in time, and otherwise grants whatever is
// claimable the moment anything is (it never waits to fill the batch —
// latency beats batch occupancy).
type claimBatchRequest struct {
	Worker     string `json:"worker"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
	Max        int    `json:"max"`
}

// claimBatchResponse carries the granted leases, in FIFO grant order.
// Granted, when non-zero, reports the coordinator's per-round-trip lease
// cap: the request asked for more than the coordinator will ever grant
// at once and was clamped, so the worker should shrink its subsequent
// requests (and its -claim-batch setting) to this value instead of
// silently over-asking forever.
type claimBatchResponse struct {
	Tasks   []*Task `json:"tasks"`
	Granted int     `json:"granted,omitempty"`
}

// TaskReport is one claim's outcome inside a batched report. Each entry
// is accepted or rejected independently against its own lease.
type TaskReport struct {
	Task    string   `json:"task"`
	Epoch   int      `json:"epoch"`
	Outcome *Outcome `json:"outcome,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// reportBatchRequest delivers several claims' outcomes in one
// round-trip.
type reportBatchRequest struct {
	Worker  string       `json:"worker"`
	Reports []TaskReport `json:"reports"`
}

// reportBatchResponse echoes one accept/reject verdict per report, in
// request order. A false entry means the lease moved on: the worker
// drops that evaluation (self-fence, no retry).
type reportBatchResponse struct {
	Accepted []bool `json:"accepted"`
}
