package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/fsx"
	"funcytuner/internal/metrics"
)

const testTimeout = 90 * time.Second

// testSpec is the small fault-injected run the distributed tests tune.
func testSpec() Spec {
	return Spec{
		Benchmark: funcytuner.CloverLeaf,
		Machine:   "broadwell",
		Samples:   24,
		TopX:      6,
		Seed:      "fleet-test",
		FaultRate: 1,
	}
}

func mustBenchmark(t *testing.T, name string) *funcytuner.Program {
	t.Helper()
	p, err := funcytuner.Benchmark(name)
	if err != nil {
		t.Fatalf("benchmark %q: %v", name, err)
	}
	return p
}

func mustMachine(t *testing.T, name string) *funcytuner.Machine {
	t.Helper()
	m, err := funcytuner.MachineByName(name)
	if err != nil {
		t.Fatalf("machine %q: %v", name, err)
	}
	return m
}

func canonicalJSONL(t *testing.T, rec *funcytuner.TraceRecorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Snapshot().Canonical().WriteJSONL(&buf); err != nil {
		t.Fatalf("canonical trace: %v", err)
	}
	return buf.Bytes()
}

// localRun executes the spec single-node and returns its fingerprint and
// canonical trace — the reference every distributed run must match.
func localRun(t *testing.T, spec Spec) (uint64, []byte) {
	t.Helper()
	rec := funcytuner.NewTraceRecorder()
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine: mustMachine(t, spec.Machine),
		Samples: spec.Samples,
		TopX:    spec.TopX,
		Seed:    spec.Seed,
		Faults:  funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		Trace:   rec,
	})
	prog := mustBenchmark(t, spec.Benchmark)
	in := funcytuner.TuningInput(spec.Benchmark, mustMachine(t, spec.Machine))
	rep, err := tuner.Tune(prog, in)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return rep.Fingerprint(), canonicalJSONL(t, rec)
}

// distributedRun tunes the spec through a coordinator + HTTP workers and
// returns the merged run's fingerprint and canonical trace. Each entry
// in workers may carry its own fault mix; a nil stop channel means the
// worker lives for the whole run.
func distributedRun(t *testing.T, spec Spec, ccfg CoordinatorConfig, workers []WorkerConfig, transports []http.RoundTripper) (uint64, []byte) {
	t.Helper()
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i := range workers {
		wc := workers[i]
		wc.Coordinator = srv.URL
		if wc.Logf == nil {
			wc.Logf = t.Logf
		}
		if transports != nil && transports[i] != nil {
			wc.HTTPClient = &http.Client{Transport: transports[i]}
		}
		w, err := NewWorker(wc)
		if err != nil {
			t.Fatalf("worker %s: %v", wc.ID, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				t.Logf("worker %s exited: %v", wc.ID, err)
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	ev, err := coord.Evaluator("job-1", spec)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	rec := funcytuner.NewTraceRecorder()
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine:   mustMachine(t, spec.Machine),
		Samples:   spec.Samples,
		TopX:      spec.TopX,
		Seed:      spec.Seed,
		Faults:    funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		Workers:   4,
		Evaluator: ev,
		Trace:     rec,
	})
	prog := mustBenchmark(t, spec.Benchmark)
	in := funcytuner.TuningInput(spec.Benchmark, mustMachine(t, spec.Machine))
	rep, err := tuner.TuneContext(ctx, prog, in)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	return rep.Fingerprint(), canonicalJSONL(t, rec)
}

// TestDistributedFingerprintMatchesLocal is the tentpole invariant on
// the happy path: a coordinator + 2 workers over real HTTP produce a
// Report.Fingerprint and canonical trace byte-equal to single-node.
func TestDistributedFingerprintMatchesLocal(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)
	gotFP, gotTrace := distributedRun(t, spec,
		CoordinatorConfig{LeaseTTL: 2 * time.Second, Heartbeat: 200 * time.Millisecond},
		[]WorkerConfig{
			{ID: "w-1", Concurrency: 2, Poll: 200 * time.Millisecond},
			{ID: "w-2", Concurrency: 2, Poll: 200 * time.Millisecond},
		}, nil)
	if gotFP != wantFP {
		t.Errorf("distributed fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("distributed canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
	}
}

// TestDistributedSurvivesWorkerChaos injects every worker fault mode —
// die-mid-eval, stall past the lease, report-then-die, stale re-report —
// at claim batch 1 and 4, and still demands byte-equality with the clean
// single-node run. This is simultaneously the duplicate/late-report
// coverage: stale reports are rejected, cost is accounted exactly once
// (the fingerprint hashes the cost and fault tallies), and the canonical
// trace is byte-identical. The stale-report and lease-expiry counters
// prove the fault modes actually fired.
func TestDistributedSurvivesWorkerChaos(t *testing.T) {
	// A longer run than testSpec's default, with no healthy peer to
	// starve the chaos workers of claims, so every fault mode fires.
	spec := testSpec()
	spec.Samples = 96
	wantFP, wantTrace := localRun(t, spec)
	chaos := faults.WorkerRates{DieMidEval: 0.08, Stall: 0.05, ReportThenDie: 0.04, StaleReport: 0.08}
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			reg := metrics.NewRegistry()
			gotFP, gotTrace := distributedRun(t, spec,
				CoordinatorConfig{
					LeaseTTL:          150 * time.Millisecond,
					Heartbeat:         30 * time.Millisecond,
					RequeueBackoff:    2 * time.Millisecond,
					RequeueBackoffCap: 20 * time.Millisecond,
					MaxLeaseLosses:    1 << 20, // chaos workers must keep rejoining
					Registry:          reg,
				},
				[]WorkerConfig{
					{ID: "w-chaos-1", Concurrency: 2, ClaimBatch: batch, Poll: 100 * time.Millisecond, Faults: chaos},
					{ID: "w-chaos-2", Concurrency: 2, ClaimBatch: batch, Poll: 100 * time.Millisecond, Faults: chaos},
					{ID: "w-chaos-3", Concurrency: 2, ClaimBatch: batch, Poll: 100 * time.Millisecond, Faults: chaos},
				}, nil)
			if gotFP != wantFP {
				t.Errorf("chaos fingerprint %016x != local %016x", gotFP, wantFP)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("chaos canonical trace differs from local (%d vs %d bytes)", len(gotTrace), len(wantTrace))
			}
			snap := reg.Snapshot()
			if snap.Counter(MetricReportsStale) == 0 {
				t.Errorf("no stale reports: the stall and stale-report modes never fired")
			}
			if snap.Counter(MetricLeasesExpired) == 0 {
				t.Errorf("no expired leases: the die and stall modes never fired")
			}
		})
	}
}

// TestFaultedLeaseSparesBatchmates pins that a die-mid-eval or stall
// drawn for one lease expires only that lease: its batchmates keep being
// heartbeated from the moment they are granted, so lease expiries never
// outnumber the injected go-dark faults at any claim batch size, and a
// single fault cannot push a batch worker toward quarantine.
func TestFaultedLeaseSparesBatchmates(t *testing.T) {
	spec := testSpec()
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch-%d", batch), func(t *testing.T) {
			reg := metrics.NewRegistry()
			var dark atomic.Int64
			logf := func(format string, args ...any) {
				line := fmt.Sprintf(format, args...)
				if strings.Contains(line, "injecting "+faults.WorkerDieMidEval.String()) ||
					strings.Contains(line, "injecting "+faults.WorkerStall.String()) {
					dark.Add(1)
				}
				t.Log(line)
			}
			distributedRun(t, spec,
				CoordinatorConfig{
					LeaseTTL:          300 * time.Millisecond,
					Heartbeat:         50 * time.Millisecond,
					RequeueBackoff:    2 * time.Millisecond,
					RequeueBackoffCap: 20 * time.Millisecond,
					MaxLeaseLosses:    1 << 20, // let the run finish so the counts compare
					Registry:          reg,
				},
				[]WorkerConfig{{
					ID: "w-dark", Concurrency: 1, ClaimBatch: batch, Poll: 100 * time.Millisecond,
					Faults: faults.WorkerRates{DieMidEval: 0.05, Stall: 0.1}, Logf: logf,
				}}, nil)
			injected := dark.Load()
			if injected == 0 {
				t.Fatalf("no die/stall fault injected; the test proves nothing")
			}
			if expired := reg.Snapshot().Counter(MetricLeasesExpired); expired > injected {
				t.Errorf("leases_expired = %d > %d injected die/stall faults: a fault expired its batchmates", expired, injected)
			}
		})
	}
}

// killAfterReports cancels a context after the worker has delivered n
// batched reports — an abrupt mid-run death from the coordinator's
// perspective.
type killAfterReports struct {
	n      int64
	cancel context.CancelFunc
	seen   atomic.Int64
	fired  atomic.Bool
}

func (k *killAfterReports) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, "/fleet/reportbatch") && k.seen.Add(1) >= k.n {
		k.fired.Store(true)
		k.cancel()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistributedSurvivesWorkerKillAndRejoin kills one worker for good
// mid-run (its context dies after 5 reports, leaving a lease to expire)
// while a second worker joins only after the run is underway — death and
// mid-run rejoin on the same fleet, same fingerprint.
func TestDistributedSurvivesWorkerKillAndRejoin(t *testing.T) {
	spec := testSpec()
	wantFP, wantTrace := localRun(t, spec)

	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          200 * time.Millisecond,
		Heartbeat:         40 * time.Millisecond,
		RequeueBackoff:    2 * time.Millisecond,
		RequeueBackoffCap: 20 * time.Millisecond,
		MaxLeaseLosses:    1 << 20,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	var wg sync.WaitGroup
	startWorker := func(ctx context.Context, cfg WorkerConfig) {
		cfg.Coordinator = srv.URL
		cfg.Logf = t.Logf
		w, err := NewWorker(cfg)
		if err != nil {
			t.Errorf("worker %s: %v", cfg.ID, err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	// Doomed worker: its context is cancelled mid-flight after 5 reports,
	// so at least one claim it evaluates next is abandoned with a live
	// lease. A slow claimer would pass vacuously, so pin the death later
	// with an assertion on its report count.
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	killer := &killAfterReports{n: 5, cancel: killVictim}
	startWorker(victimCtx, WorkerConfig{
		ID: "w-victim", Concurrency: 2, Poll: 100 * time.Millisecond,
		HTTPClient: &http.Client{Transport: killer},
	})
	startWorker(ctx, WorkerConfig{ID: "w-steady", Concurrency: 1, Poll: 100 * time.Millisecond})
	// Late joiner: first contact is its first claim — rejoin needs no
	// handshake.
	go func() {
		select {
		case <-time.After(50 * time.Millisecond):
			startWorker(ctx, WorkerConfig{ID: "w-late", Concurrency: 2, Poll: 100 * time.Millisecond})
		case <-ctx.Done():
		}
	}()
	defer wg.Wait()
	defer cancel()

	ev, err := coord.Evaluator("job-kill", spec)
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	rec := funcytuner.NewTraceRecorder()
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine:   mustMachine(t, spec.Machine),
		Samples:   spec.Samples,
		TopX:      spec.TopX,
		Seed:      spec.Seed,
		Faults:    funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		Workers:   4,
		Evaluator: ev,
		Trace:     rec,
	})
	prog := mustBenchmark(t, spec.Benchmark)
	in := funcytuner.TuningInput(spec.Benchmark, mustMachine(t, spec.Machine))
	rep, err := tuner.TuneContext(ctx, prog, in)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if !killer.fired.Load() {
		t.Errorf("victim delivered only %d reports; the kill never fired", killer.seen.Load())
	}
	if gotFP := rep.Fingerprint(); gotFP != wantFP {
		t.Errorf("kill/rejoin fingerprint %016x != local %016x", gotFP, wantFP)
	}
	if gotTrace := canonicalJSONL(t, rec); !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("kill/rejoin canonical trace differs from local")
	}
}

// claimOne leases at most one task to worker, long-polling up to
// maxWait: (nil, nil) when nothing became claimable in time.
func claimOne(ctx context.Context, coord *Coordinator, worker string, maxWait time.Duration) (*Task, error) {
	ts, err := coord.ClaimBatch(ctx, worker, maxWait, 1)
	if err != nil || len(ts) == 0 {
		return nil, err
	}
	return ts[0], nil
}

// fabricatedOutcome is a valid wire outcome for protocol tests: a clean
// evaluation measuring total, with its compile/link/run/eval span rows.
func fabricatedOutcome(total float64) *Outcome {
	secs := fsx.HexFloat(total)
	return &Outcome{
		Total: secs,
		Cost:  core.CostSnapshot{Runs: 1, SimMicros: int64(total * 1e6)},
		Span: []string{"compile 0  1 0  ", "link 1  0 0  ",
			"run 2 ok 0 0 " + secs + " " + secs, "eval 3 ok 0 0 " + secs + " " + secs},
	}
}

// baselineRequest is a minimal claim for protocol tests.
func baselineRequest() core.EvalRequest {
	return core.EvalRequest{Phase: "cfr", Sample: 3, CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
}

// TestStaleReportRejectedOnce walks the lease state machine by hand:
// expiry burns the epoch, the late report and heartbeat bounce, the
// re-dispatched claim's report is the only accepted one, and a duplicate
// of the accepted report bounces too.
func TestStaleReportRejectedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          40 * time.Millisecond,
		Heartbeat:         10 * time.Millisecond,
		RequeueBackoff:    time.Millisecond,
		RequeueBackoffCap: 2 * time.Millisecond,
		MaxLeaseLosses:    1000,
		Registry:          reg,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	ev, err := coord.Evaluator("job-x", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	type evalRes struct {
		out core.EvalOutcome
		err error
	}
	resCh := make(chan evalRes, 1)
	go func() {
		out, err := ev.Evaluate(ctx, baselineRequest())
		resCh <- evalRes{out, err}
	}()

	t1, err := claimOne(ctx, coord, "w1", 5*time.Second)
	if err != nil || t1 == nil {
		t.Fatalf("first claim: task %v err %v", t1, err)
	}
	if t1.Epoch != 1 {
		t.Fatalf("first lease epoch %d, want 1", t1.Epoch)
	}
	// Let the lease expire without heartbeats; the task requeues.
	deadline := time.Now().Add(5 * time.Second)
	for coord.ActiveLeases() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t2, err := claimOne(ctx, coord, "w2", 5*time.Second)
	if err != nil || t2 == nil {
		t.Fatalf("re-claim: task %v err %v", t2, err)
	}
	if t2.ID != t1.ID {
		t.Fatalf("re-claim got task %s, want %s", t2.ID, t1.ID)
	}
	if t2.Epoch != t1.Epoch+1 {
		t.Fatalf("re-claim epoch %d, want %d", t2.Epoch, t1.Epoch+1)
	}

	// The dead worker wakes up: late heartbeat and report both bounce.
	if ok, _ := coord.Heartbeat("w1", t1.ID, t1.Epoch); ok {
		t.Errorf("stale heartbeat accepted")
	}
	if acc, _ := coord.Report("w1", t1.ID, t1.Epoch, fabricatedOutcome(1.5), ""); acc {
		t.Errorf("stale report accepted")
	}
	// The live lease's report is accepted; its duplicate is not.
	if acc, _ := coord.Report("w2", t2.ID, t2.Epoch, fabricatedOutcome(2.5), ""); !acc {
		t.Fatalf("live report rejected")
	}
	if acc, _ := coord.Report("w2", t2.ID, t2.Epoch, fabricatedOutcome(2.5), ""); acc {
		t.Errorf("duplicate report accepted")
	}

	res := <-resCh
	if res.err != nil {
		t.Fatalf("evaluate: %v", res.err)
	}
	if res.out.Total != 2.5 {
		t.Errorf("evaluate got total %v, want the accepted report's 2.5", res.out.Total)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricReportsOK); got != 1 {
		t.Errorf("reports_ok = %d, want 1 (cost applied exactly once)", got)
	}
	if got := snap.Counter(MetricReportsStale); got != 2 {
		t.Errorf("reports_stale = %d, want 2", got)
	}
	if got := snap.Counter(MetricLeasesExpired); got != 1 {
		t.Errorf("leases_expired = %d, want 1", got)
	}
	if got := snap.Counter(MetricRequeues); got != 1 {
		t.Errorf("requeues = %d, want 1", got)
	}
}

// TestWorkerQuarantineAfterLeaseLosses proves the per-worker quarantine:
// after MaxLeaseLosses consecutive expiries the worker's claims answer
// ErrQuarantined while healthy workers keep claiming.
func TestWorkerQuarantineAfterLeaseLosses(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          30 * time.Millisecond,
		Heartbeat:         8 * time.Millisecond,
		RequeueBackoff:    time.Millisecond,
		RequeueBackoffCap: 2 * time.Millisecond,
		MaxLeaseLosses:    2,
		Registry:          reg,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	ev, err := coord.Evaluator("job-q", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	evalCtx, evalCancel := context.WithCancel(ctx)
	defer evalCancel()
	go ev.Evaluate(evalCtx, baselineRequest()) //nolint:errcheck // cancelled at cleanup

	for loss := 0; loss < 2; loss++ {
		task, err := claimOne(ctx, coord, "w-flaky", 5*time.Second)
		if err != nil || task == nil {
			t.Fatalf("loss %d claim: task %v err %v", loss, task, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for coord.ActiveLeases() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("loss %d: lease never expired", loss)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := claimOne(ctx, coord, "w-flaky", 100*time.Millisecond); err != ErrQuarantined {
		t.Errorf("quarantined worker claim error = %v, want ErrQuarantined", err)
	}
	if task, err := claimOne(ctx, coord, "w-healthy", 5*time.Second); err != nil || task == nil {
		t.Errorf("healthy worker blocked after peer quarantine: task %v err %v", task, err)
	}
	if got := reg.Snapshot().Counter(MetricWorkersQuarantined); got != 1 {
		t.Errorf("workers_quarantined = %d, want 1", got)
	}
	if _, q := coord.Workers(); q != 1 {
		t.Errorf("quarantined worker count = %d, want 1", q)
	}
}

// TestHeartbeatKeepsLeaseAlive holds one lease well past several TTLs by
// heartbeating, then reports successfully — no expiry, no requeue.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{
		LeaseTTL:  60 * time.Millisecond,
		Heartbeat: 15 * time.Millisecond,
		Registry:  reg,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	ev, err := coord.Evaluator("job-hb", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ev.Evaluate(ctx, baselineRequest())
		done <- err
	}()
	task, err := claimOne(ctx, coord, "w1", 5*time.Second)
	if err != nil || task == nil {
		t.Fatalf("claim: task %v err %v", task, err)
	}
	for end := time.Now().Add(250 * time.Millisecond); time.Now().Before(end); {
		if ok, err := coord.Heartbeat("w1", task.ID, task.Epoch); err != nil || !ok {
			t.Fatalf("heartbeat rejected while lease should be live (ok=%v err=%v)", ok, err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	if acc, _ := coord.Report("w1", task.ID, task.Epoch, fabricatedOutcome(1), ""); !acc {
		t.Fatalf("report rejected after sustained heartbeats")
	}
	if err := <-done; err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricLeasesExpired); got != 0 {
		t.Errorf("leases_expired = %d, want 0", got)
	}
	if got := snap.Counter(MetricRequeues); got != 0 {
		t.Errorf("requeues = %d, want 0", got)
	}
}

func TestCoordinatorClosedAndCancelled(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: 50 * time.Millisecond, Heartbeat: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ctx := context.Background()
	ev, err := coord.Evaluator("job-c", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	// Cancelled Evaluate withdraws its task.
	cctx, ccancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := ev.Evaluate(cctx, baselineRequest())
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for coord.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("task never enqueued")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ccancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled evaluate error = %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for coord.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled task never withdrawn")
		}
		time.Sleep(2 * time.Millisecond)
	}

	coord.Close()
	coord.Close() // idempotent
	if _, err := claimOne(ctx, coord, "w1", 10*time.Millisecond); err != ErrClosed {
		t.Errorf("claim on closed coordinator: %v, want ErrClosed", err)
	}
	if _, err := ev.Evaluate(ctx, baselineRequest()); err != ErrClosed {
		t.Errorf("evaluate on closed coordinator: %v, want ErrClosed", err)
	}
}

func TestCoordinatorConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  CoordinatorConfig
		ok   bool
	}{
		{"zero-defaults", CoordinatorConfig{}, true},
		{"explicit", CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: 100 * time.Millisecond}, true},
		{"heartbeat-equals-ttl", CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: time.Second}, false},
		{"heartbeat-above-ttl", CoordinatorConfig{LeaseTTL: time.Second, Heartbeat: 2 * time.Second}, false},
		{"negative-ttl", CoordinatorConfig{LeaseTTL: -time.Second}, false},
		{"negative-losses", CoordinatorConfig{MaxLeaseLosses: -1}, false},
	}
	for _, tc := range cases {
		c, err := NewCoordinator(tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
		if c != nil {
			c.Close()
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"no-benchmark": func(s *Spec) { s.Benchmark = "" },
		"no-machine":   func(s *Spec) { s.Machine = "" },
		"no-seed":      func(s *Spec) { s.Seed = "" },
		"neg-samples":  func(s *Spec) { s.Samples = -1 },
		"neg-rate":     func(s *Spec) { s.FaultRate = -1 },
	} {
		s := testSpec()
		mut(&s)
		if err := s.validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}
