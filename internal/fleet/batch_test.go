package fleet

import (
	"bytes"
	"context"
	"testing"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/metrics"
)

// batchRequest is baselineRequest with a distinct sample index, so a
// test can enqueue several distinguishable tasks.
func batchRequest(sample int) core.EvalRequest {
	return core.EvalRequest{Phase: "cfr", Sample: sample, CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
}

// TestClaimBatchFIFOAndPerTaskEpochs pins the batched-claim contract:
// grants come in FIFO enqueue order, each granted task carries its own
// fresh lease and epoch, a partial batch is granted immediately rather
// than held to fill, an empty queue answers (nil, nil) after the long
// poll, and malformed arguments are rejected.
func TestClaimBatchFIFOAndPerTaskEpochs(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	spec := testSpec()
	var want []string
	for s := 1; s <= 3; s++ {
		task, err := coord.enqueue("job-batch", spec, batchRequest(s))
		if err != nil {
			t.Fatalf("enqueue %d: %v", s, err)
		}
		want = append(want, task.id)
	}

	// max below the queue depth: the two oldest tasks, in order.
	first, err := coord.ClaimBatch(ctx, "w1", 5*time.Second, 2)
	if err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if len(first) != 2 || first[0].ID != want[0] || first[1].ID != want[1] {
		t.Fatalf("first batch = %v, want FIFO prefix %v", first, want[:2])
	}
	for _, task := range first {
		if task.Epoch != 1 {
			t.Errorf("task %s epoch %d, want 1 (fresh per-task lease)", task.ID, task.Epoch)
		}
		if task.LeaseMillis <= 0 {
			t.Errorf("task %s granted without a lease deadline", task.ID)
		}
	}
	if got := coord.ActiveLeases(); got != 2 {
		t.Errorf("active leases = %d, want 2", got)
	}

	// max above the queue depth: the remaining task is granted at once —
	// a partial batch is never held back hoping to fill.
	start := time.Now()
	second, err := coord.ClaimBatch(ctx, "w1", 5*time.Second, 8)
	if err != nil {
		t.Fatalf("second batch: %v", err)
	}
	if len(second) != 1 || second[0].ID != want[2] {
		t.Fatalf("second batch = %v, want exactly %s", second, want[2])
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("partial batch was held %v; grants must be immediate", waited)
	}

	// Empty queue: the long poll expires into (nil, nil), the 204 path.
	none, err := coord.ClaimBatch(ctx, "w1", 30*time.Millisecond, 8)
	if err != nil || none != nil {
		t.Errorf("empty-queue batch = (%v, %v), want (nil, nil)", none, err)
	}

	if _, err := coord.ClaimBatch(ctx, "", time.Millisecond, 1); err == nil {
		t.Error("empty worker ID accepted")
	}
	if _, err := coord.ClaimBatch(ctx, "w1", time.Millisecond, 0); err == nil {
		t.Error("batch size 0 accepted")
	}
}

// TestReportBatchIndependentVerdicts proves a batched report is judged
// entry by entry against the same rules as single Report calls: a stale
// epoch, an unknown task and a duplicate all bounce individually without
// poisoning the valid reports sharing their batch, and each accepted
// report resolves its task exactly once.
func TestReportBatchIndependentVerdicts(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 5 * time.Second, Registry: reg})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	spec := testSpec()
	t1, err := coord.enqueue("job-rb", spec, batchRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := coord.enqueue("job-rb", spec, batchRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	claimed, err := coord.ClaimBatch(ctx, "w1", 5*time.Second, 2)
	if err != nil || len(claimed) != 2 {
		t.Fatalf("claim batch: tasks %v err %v", claimed, err)
	}

	got, err := coord.ReportBatch("w1", []TaskReport{
		{Task: t1.id, Epoch: claimed[0].Epoch + 1, Outcome: fabricatedOutcome(1.5)}, // burned epoch
		{Task: t2.id, Epoch: claimed[1].Epoch, Outcome: fabricatedOutcome(2.5)},     // live lease
		{Task: "no-such-task", Epoch: 1, Outcome: fabricatedOutcome(3.5)},           // unknown
		{Task: t1.id, Epoch: claimed[0].Epoch, Outcome: fabricatedOutcome(4.5)},     // live lease
	})
	if err != nil {
		t.Fatalf("report batch: %v", err)
	}
	want := []bool{false, true, false, true}
	if len(got) != len(want) {
		t.Fatalf("verdicts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("verdict[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Duplicates of the accepted entries bounce on a later batch too.
	dup, err := coord.ReportBatch("w1", []TaskReport{
		{Task: t2.id, Epoch: claimed[1].Epoch, Outcome: fabricatedOutcome(2.5)},
	})
	if err != nil || len(dup) != 1 || dup[0] {
		t.Errorf("duplicate batched report = (%v, %v), want ([false], nil)", dup, err)
	}

	// Each accepted report resolved its task with its own outcome.
	for i, task := range []*task{t1, t2} {
		wantTotal := []float64{4.5, 2.5}[i]
		select {
		case res := <-task.done:
			if res.err != nil || res.out.Total != wantTotal {
				t.Errorf("task %s resolved (%v, %v), want total %v", task.id, res.out.Total, res.err, wantTotal)
			}
		default:
			t.Errorf("task %s never resolved", task.id)
		}
	}

	snap := reg.Snapshot()
	if ok := snap.Counter(MetricReportsOK); ok != 2 {
		t.Errorf("reports_ok = %d, want 2", ok)
	}
	if stale := snap.Counter(MetricReportsStale); stale != 3 {
		t.Errorf("reports_stale = %d, want 3", stale)
	}
}

// TestBatchedWorkersMatchLocal runs the distributed happy path with
// batched claims and reports (ClaimBatch: 8 over real HTTP) and demands
// the same byte-equality as single-claim workers: batching is transport
// economics, not semantics.
func TestBatchedWorkersMatchLocal(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	gotFP, gotTrace := distributedRun(t, spec,
		CoordinatorConfig{LeaseTTL: 2 * time.Second, Heartbeat: 200 * time.Millisecond},
		[]WorkerConfig{
			{ID: "wb-1", Concurrency: 2, ClaimBatch: 8, Poll: 200 * time.Millisecond},
			{ID: "wb-2", Concurrency: 2, ClaimBatch: 8, Poll: 200 * time.Millisecond},
		}, nil)
	if gotFP != wantFP {
		t.Errorf("batched fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("batched canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}
