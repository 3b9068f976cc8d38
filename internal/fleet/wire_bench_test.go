package fleet

import (
	"encoding/json"
	"fmt"
	"testing"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
)

// BenchmarkWireClaimBatch measures the per-claim codec end to end: the
// coordinator encoding CV rows and marshalling a 16-task
// claimBatchResponse of CloverLeaf search claims (one ICC CV for each
// of its 12 outlined modules), and a worker unmarshalling it and
// rebuilding every task's CVs.
func BenchmarkWireClaimBatch(b *testing.B) {
	const tasks, modules = 16, 12
	space := flagspec.ICC()
	r := xrand.New(1)
	cvs := make([][]flagspec.CV, tasks)
	for i := range cvs {
		cvs[i] = space.Sample(r, modules)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var resp claimBatchResponse
		for i, row := range cvs {
			resp.Tasks = append(resp.Tasks, &Task{
				ID: fmt.Sprintf("job-1/cfr/%d#%d", i, i+1), Job: "job-1", Spec: testSpec(),
				Phase: "cfr", Sample: i, CVs: encodeCVs(row),
				Epoch: 1, LeaseMillis: 10000, HeartbeatMillis: 1000,
			})
		}
		data, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		var back claimBatchResponse
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		for _, t := range back.Tasks {
			if _, err := decodeCVs(space, t.CVs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// searchOutcomes fabricates n clean CloverLeaf search evaluations
// (phase "cfr", samples 0..n-1), each with the four-event span a worker's
// detached batch captures: compile of the 12 outlined modules, link, run
// and eval.
func searchOutcomes(n int) []core.EvalOutcome {
	const modules = 12
	r := xrand.New(2)
	outs := make([]core.EvalOutcome, n)
	for i := range outs {
		secs := r.Range(15, 25)
		sim := secs + r.Range(30, 60)
		span := trace.NewSpanBatch("cfr", i)
		span.Add(trace.Event{Kind: trace.KindCompile, Modules: modules})
		span.Add(trace.Event{Kind: trace.KindLink})
		span.Add(trace.Event{Kind: trace.KindRun, Name: "ok", Seconds: secs, Sim: sim})
		span.Add(trace.Event{Kind: trace.KindEval, Name: "ok", Seconds: secs, Sim: sim})
		outs[i] = core.EvalOutcome{
			Total:  secs,
			Cost:   core.CostSnapshot{Compiles: modules, Runs: 1, SimMicros: int64(sim * 1e6)},
			Events: span.Events(),
		}
	}
	return outs
}

// BenchmarkWireReportBatch measures the per-report codec end to end: a
// worker encoding 16 CloverLeaf search outcomes and marshalling them as
// one reportBatchRequest, and the coordinator unmarshalling it and
// decoding every outcome against its task's phase and sample.
func BenchmarkWireReportBatch(b *testing.B) {
	outs := searchOutcomes(16)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		req := reportBatchRequest{Worker: "w1"}
		for i, out := range outs {
			o, err := encodeOutcome("cfr", i, out)
			if err != nil {
				b.Fatal(err)
			}
			req.Reports = append(req.Reports, TaskReport{Task: fmt.Sprintf("job-1/cfr/%d#%d", i, i+1), Epoch: 1, Outcome: o})
		}
		data, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		var back reportBatchRequest
		if err := json.Unmarshal(data, &back); err != nil {
			b.Fatal(err)
		}
		for i, r := range back.Reports {
			if _, err := r.Outcome.decode("cfr", i); err != nil {
				b.Fatal(err)
			}
		}
	}
}
