package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"funcytuner"
	"funcytuner/internal/faults"
	"funcytuner/internal/xrand"
)

// WorkerConfig parameterizes one evaluation worker process.
type WorkerConfig struct {
	// ID is the worker's stable identity (lease attribution, quarantine,
	// fault-stream seeding). Required.
	ID string
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Concurrency bounds simultaneous claims (default 1).
	Concurrency int
	// ClaimBatch is the number of tasks each claim round-trip may lease
	// (default 1). It is a transport setting only: the protocol is the
	// same at every size, and a larger batch amortizes claim and report
	// HTTP overhead across N evaluations. Every lease in a batch still
	// lives and dies individually (own epoch, own heartbeat verdict, own
	// report acceptance).
	ClaimBatch int
	// Poll is the claim long-poll bound (default 2s).
	Poll time.Duration
	// ReconnectAttempts bounds consecutive failed claim round-trips
	// (connection refused, coordinator killed mid-restart) before the
	// worker gives up (default DefaultReconnectAttempts). The retry
	// delay starts at Poll/8 (min 10ms) and doubles up to Poll, so a
	// worker rides out a coordinator restart instead of erroring, yet a
	// permanently-gone coordinator does not pin the process forever.
	ReconnectAttempts int
	// CacheSize bounds the worker's process-wide compile/link cache, in
	// entries (0 selects the facade default size). The cache is shared
	// by every job service the worker builds; keys carry full
	// program/machine/flavor identity, so sharing is behaviour-
	// invisible.
	CacheSize int
	// CacheSpill, when non-empty, attaches an on-disk spill tier rooted
	// at this directory to the worker's compile cache: evicted entries
	// are written behind, misses read through, and the still-resident
	// entries are flushed there when Run returns — a restarted worker
	// starts warm instead of recompiling. Results are bit-identical
	// spill-on vs spill-off.
	CacheSpill string
	// Faults injects worker-level chaos (die-mid-eval, stall,
	// report-then-die, stale re-report). Zero value = a healthy worker.
	Faults faults.WorkerRates
	// HTTPClient overrides the transport (tests); nil uses a default.
	HTTPClient *http.Client
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) validate() error {
	if c.ID == "" {
		return fmt.Errorf("fleet: worker ID is required")
	}
	if c.Coordinator == "" {
		return fmt.Errorf("fleet: coordinator URL is required")
	}
	if c.Concurrency < 0 {
		return fmt.Errorf("fleet: concurrency must be >= 0, got %d", c.Concurrency)
	}
	if c.ClaimBatch < 0 {
		return fmt.Errorf("fleet: claim batch must be >= 0, got %d", c.ClaimBatch)
	}
	if c.Poll < 0 {
		return fmt.Errorf("fleet: poll interval must be >= 0, got %v", c.Poll)
	}
	if c.ReconnectAttempts < 0 {
		return fmt.Errorf("fleet: reconnect attempts must be >= 0, got %d", c.ReconnectAttempts)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("fleet: cache size must be >= 0, got %d", c.CacheSize)
	}
	return c.Faults.Validate()
}

func (c WorkerConfig) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return 1
}

func (c WorkerConfig) claimBatch() int {
	if c.ClaimBatch > 0 {
		return c.ClaimBatch
	}
	return 1
}

func (c WorkerConfig) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 2 * time.Second
}

// DefaultReconnectAttempts is the consecutive-claim-failure budget
// before a worker gives up on its coordinator. With the delay capped at
// the poll bound, the default budget tolerates outages of roughly a
// minute's worth of polls — generous for a journal-recovery restart,
// finite for a coordinator that is simply gone.
const DefaultReconnectAttempts = 60

func (c WorkerConfig) reconnectAttempts() int {
	if c.ReconnectAttempts > 0 {
		return c.ReconnectAttempts
	}
	return DefaultReconnectAttempts
}

// reconnectDelay shapes the claim retry backoff: poll/8 (min 10ms)
// doubling per consecutive failure, capped at the poll bound.
func reconnectDelay(poll time.Duration, failures int) time.Duration {
	d := poll / 8
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	for i := 1; i < failures && d < poll; i++ {
		d *= 2
	}
	if d > poll {
		d = poll
	}
	return d
}

// jobService caches one job's claim executor. Built on first claim, so
// a worker that joins mid-run needs no handshake beyond claiming.
type jobService struct {
	spec Spec
	svc  *funcytuner.EvalService
	err  error
}

// Worker claims, evaluates and reports until its context is cancelled,
// the coordinator closes, or the coordinator quarantines it. All tuning
// state lives in its per-job EvalServices, which are pure functions of
// the Spec — restarting a worker loses nothing.
type Worker struct {
	cfg WorkerConfig
	cl  *client
	// cache is the process-wide compile/link cache shared by every job
	// service this worker builds. Cache keys carry program, machine and
	// flag-space identity, so cross-job sharing is behaviour-invisible;
	// what it buys is warmth — a worker that has evaluated a job's
	// assemblies once keeps that work across lease churn, rejoins and
	// new jobs over the same benchmark.
	cache *funcytuner.CompileCache

	// clampOnce gates the one-time log line when the coordinator clamps
	// this worker's claim batches below its configured -claim-batch.
	clampOnce sync.Once

	mu       sync.Mutex
	services map[string]*jobService
	models   map[string]*faults.WorkerModel
}

// NewWorker builds a worker for cfg.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cache := funcytuner.NewCompileCache(cfg.CacheSize)
	if cfg.CacheSpill != "" {
		if err := cache.AttachSpill(cfg.CacheSpill); err != nil {
			return nil, err
		}
	}
	return &Worker{
		cfg:      cfg,
		cl:       newClient(cfg.Coordinator, cfg.HTTPClient),
		cache:    cache,
		services: make(map[string]*jobService),
		models:   make(map[string]*faults.WorkerModel),
	}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run executes the claim loop until ctx is cancelled or the coordinator
// closes (both return nil) or quarantines this worker (returns
// ErrQuarantined).
func (w *Worker) Run(ctx context.Context) error {
	n := w.cfg.concurrency()
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- w.loop(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	if w.cfg.CacheSpill != "" {
		// Flush the still-resident cache entries to the spill directory so
		// a restarted worker starts warm instead of recompiling.
		w.cache.SpillAll()
	}
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *Worker) loop(ctx context.Context) error {
	batch := w.cfg.claimBatch()
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		ts, granted, err := w.cl.claimBatch(ctx, w.cfg.ID, w.cfg.poll(), batch)
		if granted > 0 && granted < batch {
			asked := batch
			w.clampOnce.Do(func() {
				w.logf("fleet worker %s: coordinator grants at most %d leases per claim (asked %d); adapting — set -claim-batch to %d or less",
					w.cfg.ID, granted, asked, granted)
			})
			batch = granted
		}
		switch {
		case errors.Is(err, ErrClosed):
			return nil
		case errors.Is(err, ErrQuarantined):
			w.logf("fleet worker %s: quarantined by coordinator, stopping", w.cfg.ID)
			return ErrQuarantined
		case errors.Is(err, context.Canceled) || ctx.Err() != nil:
			return nil
		case err != nil:
			// Transport trouble (coordinator restarting, partition,
			// ErrUnavailable from a killed coordinator): back off and
			// keep trying — rejoining is just claiming. One log line per
			// outage, not per attempt, and a capped retry budget so a
			// permanently-gone coordinator fails loudly instead of
			// pinning the worker forever.
			failures++
			if failures == 1 {
				w.logf("fleet worker %s: coordinator unavailable, retrying: %v", w.cfg.ID, err)
			}
			if failures > w.cfg.reconnectAttempts() {
				return fmt.Errorf("fleet: worker %s: coordinator unreachable after %d attempts: %w",
					w.cfg.ID, failures-1, err)
			}
			sleepCtx(ctx, reconnectDelay(w.cfg.poll(), failures))
			continue
		case len(ts) == 0:
			failures = 0
			continue // long-poll expired, nothing claimable
		}
		if failures > 0 {
			w.logf("fleet worker %s: coordinator back after %d failed claims", w.cfg.ID, failures)
			failures = 0
		}
		w.executeBatch(ctx, ts)
	}
}

// classify draws the injected worker fault mode for one lease. The draw
// folds the lease epoch into the key, so a re-dispatched claim draws
// fresh — a worker that died on a task is not doomed to die on it again.
func (w *Worker) classify(t *Task) faults.WorkerClass {
	if !w.cfg.Faults.Enabled() {
		return faults.WorkerOK
	}
	w.mu.Lock()
	m, ok := w.models[t.Spec.Seed]
	if !ok {
		m = faults.NewWorkerModel(t.Spec.Seed, w.cfg.ID, w.cfg.Faults)
		w.models[t.Spec.Seed] = m
	}
	w.mu.Unlock()
	return m.Classify(xrand.Combine(xrand.HashString(t.ID), uint64(t.Epoch)))
}

// service returns the claim executor for the task's job, building it on
// first contact.
func (w *Worker) service(t *Task) (*funcytuner.EvalService, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s, ok := w.services[t.Job]; ok {
		if s.spec != t.Spec {
			return nil, fmt.Errorf("fleet: job %s spec changed mid-run", t.Job)
		}
		return s.svc, s.err
	}
	s := &jobService{spec: t.Spec}
	s.svc, s.err = buildService(t.Spec, w.cache)
	w.services[t.Job] = s
	return s.svc, s.err
}

// buildService rebuilds the coordinator's session from the Spec — same
// deterministic inputs, so every claim outcome is bit-identical to a
// local evaluation on the coordinator. cache, when non-nil, is shared
// with every other service in the process (see Worker.cache).
func buildService(spec Spec, cache *funcytuner.CompileCache) (*funcytuner.EvalService, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	prog, err := funcytuner.Benchmark(spec.Benchmark)
	if err != nil {
		return nil, err
	}
	machine, err := funcytuner.MachineByName(spec.Machine)
	if err != nil {
		return nil, err
	}
	in := funcytuner.TuningInput(spec.Benchmark, machine)
	tuner := funcytuner.NewTuner(funcytuner.Options{
		Machine:     machine,
		Samples:     spec.Samples,
		TopX:        spec.TopX,
		Seed:        spec.Seed,
		Faults:      funcytuner.DefaultFaultRates().Scale(spec.FaultRate),
		SharedCache: cache,
	})
	return tuner.EvalService(prog, in)
}

// executeBatch runs one claim round-trip's leases end to end — a batch
// of one is the unbatched case — under one heartbeat loop and one
// batched report. Lease hygiene is per task: a lease whose heartbeat
// bounces is fenced (its evaluation is skipped or abandoned and it is
// left out of the report) without disturbing its batchmates, and a
// fenced lease never turns into a stale report.
//
// Injected fault modes are per lease as well. A lease that draws
// die_mid_eval or stall goes dark on its own: it is never heartbeated,
// while every other lease of the claim is heartbeated from the moment it
// is granted, so one fault cannot expire its batchmates.
func (w *Worker) executeBatch(ctx context.Context, ts []*Task) {
	leaseTTL := time.Duration(ts[0].LeaseMillis) * time.Millisecond
	hb := time.Duration(ts[0].HeartbeatMillis) * time.Millisecond

	modes := make([]faults.WorkerClass, len(ts))
	evalCtxs := make([]context.Context, len(ts))
	var watched []*Task
	var fences []context.CancelFunc
	var sitOut time.Duration
	for i, t := range ts {
		modes[i] = w.classify(t)
		if modes[i] != faults.WorkerOK {
			w.logf("fleet worker %s: injecting %v on task %s epoch %d", w.cfg.ID, modes[i], t.ID, t.Epoch)
		}
		var cancel context.CancelFunc
		evalCtxs[i], cancel = context.WithCancel(ctx)
		defer cancel()
		switch modes[i] {
		case faults.WorkerDieMidEval:
			// Go dark on this lease: no heartbeat, no evaluation, no
			// report. Sitting out the lease before the next claim models
			// the death; claiming again models the rejoin.
			sitOut = max(sitOut, leaseTTL+hb)
		case faults.WorkerStall:
			// Hang without a single heartbeat (below, before evaluating).
		case faults.WorkerReportThenDie:
			// The report lands; then the worker goes dark before its next
			// claim, so peers must carry the run until it rejoins.
			sitOut = max(sitOut, leaseTTL)
			fallthrough
		default:
			watched = append(watched, t)
			fences = append(fences, cancel)
		}
	}

	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.batchHeartbeatLoop(ctx, watched, fences, hbStop, leaseTTL, hb)
	}()

	outs := make([]*Outcome, len(ts))
	errStrs := make([]string, len(ts))
	for i, t := range ts {
		switch modes[i] {
		case faults.WorkerDieMidEval:
			continue
		case faults.WorkerStall:
			// Blow past the lease deadline, then evaluate and report
			// anyway: the late report must bounce off the burned epoch.
			sleepCtx(ctx, leaseTTL+hb)
		}
		if evalCtxs[i].Err() != nil {
			continue // shutting down or fenced before this slot's turn
		}
		svc, err := w.service(t)
		if err != nil {
			errStrs[i] = err.Error()
			continue
		}
		cvs, err := decodeCVs(svc.Space(), t.CVs)
		if err != nil {
			errStrs[i] = err.Error()
			continue
		}
		out, evalErr := svc.Evaluate(evalCtxs[i], funcytuner.EvalRequest{Phase: t.Phase, Sample: t.Sample, CVs: cvs})
		if evalErr != nil {
			errStrs[i] = evalErr.Error()
			continue
		}
		if outs[i], err = encodeOutcome(t.Phase, t.Sample, out); err != nil {
			errStrs[i] = err.Error()
		}
	}
	close(hbStop)
	hbWG.Wait()

	if ctx.Err() != nil {
		return // shutting down; the leases expire on their own
	}
	var reports []TaskReport
	var reported []int
	for i, t := range ts {
		if evalCtxs[i].Err() != nil {
			w.logf("fleet worker %s: fenced off task %s epoch %d", w.cfg.ID, t.ID, t.Epoch)
			continue
		}
		if outs[i] == nil && errStrs[i] == "" {
			continue // never evaluated (died on this lease)
		}
		reports = append(reports, TaskReport{Task: t.ID, Epoch: t.Epoch, Outcome: outs[i], Error: errStrs[i]})
		reported = append(reported, i)
	}
	if len(reports) > 0 {
		accepted, err := w.cl.reportBatch(ctx, w.cfg.ID, reports)
		if err != nil {
			// The leases expire on their own; the claims are re-dispatched.
			w.logf("fleet worker %s: report of %d: %v", w.cfg.ID, len(reports), err)
		}
		var replay []TaskReport
		for j, ok := range accepted {
			t := ts[reported[j]]
			switch {
			case !ok:
				w.logf("fleet worker %s: report for task %s epoch %d rejected as stale", w.cfg.ID, t.ID, t.Epoch)
			case modes[reported[j]] == faults.WorkerStaleReport:
				replay = append(replay, reports[j])
			}
		}
		if len(replay) > 0 {
			// Replay the accepted reports, modeling a rejoining worker
			// flushing its send buffer: the duplicates must be rejected
			// and change nothing.
			w.cl.reportBatch(ctx, w.cfg.ID, replay)
		}
	}
	sleepCtx(ctx, sitOut)
}

// batchHeartbeatLoop keeps a claim's watched leases alive while the
// evaluations run. Verdicts are per task: a bounced heartbeat fences
// only that task. Transport silence for a full lease TTL fences every
// watched lease — a partitioned worker must assume they all expired
// rather than report into burned epochs.
func (w *Worker) batchHeartbeatLoop(ctx context.Context, ts []*Task, fences []context.CancelFunc, stop <-chan struct{}, leaseTTL, hb time.Duration) {
	if hb <= 0 {
		hb = leaseTTL / 4
	}
	if hb <= 0 {
		hb = time.Second
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	live := make([]bool, len(ts))
	for i := range live {
		live[i] = true
	}
	lastOK := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
			anyLive, anyOK, anyErr := false, false, false
			for i, t := range ts {
				if !live[i] {
					continue
				}
				ok, err := w.cl.heartbeat(ctx, w.cfg.ID, t.ID, t.Epoch)
				switch {
				case err == nil && ok:
					anyOK = true
					anyLive = true
				case err == nil && !ok:
					live[i] = false
					fences[i]()
				default:
					anyErr = true
					anyLive = true
				}
			}
			if anyOK {
				lastOK = time.Now()
			}
			if anyErr && time.Since(lastOK) > leaseTTL {
				for i := range ts {
					if live[i] {
						live[i] = false
						fences[i]()
					}
				}
				return
			}
			if !anyLive {
				return
			}
		}
	}
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
