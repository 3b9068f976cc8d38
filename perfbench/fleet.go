package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/fleet"
	fmetrics "funcytuner/internal/metrics"
)

// fleetClaimBatches are the workers' claim batch sizes: one keeps the
// daemon's default single-task protocol, the other batches.
var fleetClaimBatches = []int{1, 16}

// fleetInFlight is the fleet campaigns' session worker count: how many
// claims a campaign keeps outstanding, enough to fill the batch worker's
// batch. The claims wait on the network; the CPU work stays bounded by
// the two single-slot workers.
const fleetInFlight = 16

// fleetBench is the fleet workload: cfr campaigns, one at a time, whose
// evaluations an in-process coordinator hands to two in-process workers
// over loopback HTTP.
type fleetBench struct {
	e     *env
	c     *corpus
	fl    *fleetRig
	specs []spec
	ops   int               // campaigns started, which also numbers their jobs
	refs  map[string]uint64 // local fingerprint per spec
}

// fleetRig is one running coordinator, its HTTP server and its workers.
type fleetRig struct {
	coord   *fleet.Coordinator
	reg     *fmetrics.Registry
	hs      *http.Server
	served  chan struct{}
	cancel  context.CancelFunc
	workers sync.WaitGroup
	rt      *timingTransport
	base    string
}

// startFleet starts a coordinator (journaled when journal is set) and the
// workers. Request spans are named prefix+path.
func startFleet(journal, prefix string) (*fleetRig, error) {
	reg := fmetrics.NewRegistry()
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Registry: reg, JournalPath: journal})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &fleetRig{
		coord: coord, reg: reg, cancel: cancel,
		hs:     &http.Server{Handler: coord.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		rt:     &timingTransport{next: &http.Transport{MaxIdleConnsPerHost: 4}, prefix: prefix},
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(r.served)
		_ = r.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	for i, batch := range fleetClaimBatches {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:          fmt.Sprintf("w%d", i),
			Coordinator: r.base,
			Concurrency: 1,
			ClaimBatch:  batch,
			HTTPClient:  &http.Client{Transport: r.rt},
		})
		if err != nil {
			r.stop()
			return nil, err
		}
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: fleet worker:", err)
			}
		}()
	}
	return r, nil
}

// stop closes the coordinator (which releases the workers' long polls),
// waits for the workers and shuts the HTTP server down.
func (r *fleetRig) stop() {
	r.cancel()
	r.coord.Close()
	r.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		r.hs.Close()
	}
	<-r.served
	r.rt.next.CloseIdleConnections()
}

func setupFleet(e *env) (instance, error) {
	c, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	fl, err := startFleet("", "fleet.")
	if err != nil {
		return nil, err
	}
	b := &fleetBench{e: e, c: c, fl: fl, specs: fleetSpecs(e.seed), refs: map[string]uint64{}}
	// Reference fingerprints: every spec the loop will run, tuned locally.
	for _, s := range b.specs {
		rep, err := c.tuner(s, e.nproc, funcytuner.Options{}).Tune(c.progs[s.Program], c.inputs[s.Program])
		if err != nil {
			fl.stop()
			return nil, err
		}
		b.refs[s.key()] = rep.Fingerprint()
	}
	return b, nil
}

func (b *fleetBench) close() { b.fl.stop() }

// tune runs one fleet campaign and returns its report.
func (b *fleetBench) tune(fl *fleetRig, job string, s spec, wrap func(core.RemoteEvaluator) core.RemoteEvaluator) (*funcytuner.Report, error) {
	ev, err := fl.coord.Evaluator(job, fleet.Spec{
		Benchmark: s.Program, Machine: machine, Samples: samples, TopX: topX, Seed: s.Seed, Technique: s.Technique,
	})
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		ev = wrap(ev)
	}
	return b.c.tuner(s, fleetInFlight, funcytuner.Options{Evaluator: ev}).Tune(b.c.progs[s.Program], b.c.inputs[s.Program])
}

// loop runs fleet campaigns back to back for d.
func (b *fleetBench) loop(fl *fleetRig, d time.Duration, p *pass, tr *tracer, rec *evalRecorder) (lat, speedups []float64, runs int64) {
	start := time.Now()
	for time.Since(start) < d {
		s := b.specs[b.ops%len(b.specs)]
		b.ops++
		p.attempted++
		root := tr.begin(-1, "", "campaign")
		var wrap func(core.RemoteEvaluator) core.RemoteEvaluator
		if rec != nil {
			wrap = func(ev core.RemoteEvaluator) core.RemoteEvaluator { return rec.wrap(ev, s, root) }
		}
		t0 := time.Now()
		rep, err := b.tune(fl, fmt.Sprintf("job-%d", b.ops), s, wrap)
		elapsed := time.Since(t0)
		tr.end(root)
		if err != nil {
			fmt.Printf("fleet %s: %v\n", s.key(), err)
			p.failed++
			continue
		}
		if fp := rep.Fingerprint(); fp != b.refs[s.key()] {
			fmt.Printf("fleet %s: fingerprint %016x, local run %016x\n", s.key(), fp, b.refs[s.key()])
			p.failed++
			continue
		}
		lat = append(lat, ms(elapsed))
		speedups = append(speedups, rep.Best.Speedup)
		runs += rep.Runs
	}
	return lat, speedups, runs
}

func (b *fleetBench) measure(d time.Duration, tr *tracer) (*pass, error) {
	p := &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
	rt := startRuntimeProbe()
	var rec *evalRecorder
	before := b.fl.reg.Snapshot()
	if tr != nil {
		rec = &evalRecorder{tr: tr}
		b.fl.rt.attach(tr)
		defer b.fl.rt.attach(nil)
	}
	start := time.Now()
	lat, speedups, runs := b.loop(b.fl, d, p, tr, rec)
	p.wall = time.Since(start)
	p.latencies = map[string][]float64{"campaign_ms": lat}
	p.e2e["campaign_ms.p50"] = percentile(lat, 50)
	p.e2e["campaign_ms.p90"] = percentile(lat, 90)
	p.e2e["requests_per_s"] = float64(len(lat)) / p.wall.Seconds()
	p.e2e["evals_per_s"] = float64(runs) / p.wall.Seconds()
	p.e2e["speedup_geomean"] = geomean(speedups)
	rt.finish(p, len(lat))
	if tr == nil {
		return p, nil
	}
	m := p.layer
	delta := b.fl.reg.Snapshot().Diff(before)
	m["fleet.requeues"] = float64(delta.Counter(fleet.MetricRequeues))
	m["fleet.lease_losses"] = float64(delta.Counter(fleet.MetricLeasesExpired))
	b.fl.rt.report(m, float64(runs))
	m["fleet.remote_eval_ms"] = mean(tr.durations("fleet.remote_eval")) * 1e3
	if err := rec.replay(b.c, m); err != nil {
		return nil, err
	}
	// The traced window covers the EvalService probe; the journaled pass
	// is timed on its own.
	p.wall = time.Since(start)
	return p, b.journalPass(d/2, m)
}

// journalPass runs the same loop against a coordinator with its
// write-ahead journal on, for the per-layer journal metrics.
func (b *fleetBench) journalPass(d time.Duration, m map[string]float64) error {
	dir, err := os.MkdirTemp(b.e.work, "journal-")
	if err != nil {
		return err
	}
	heap0 := liveHeap()
	path := filepath.Join(dir, "fleet.journal")
	fl, err := startFleet(path, "fleet.journal.")
	if err != nil {
		return err
	}
	defer fl.stop()
	tr := newTracer()
	fl.rt.attach(tr)
	p := &pass{}
	start := time.Now()
	_, _, runs := b.loop(fl, d, p, nil, nil)
	wall := time.Since(start)
	if p.failed > 0 {
		return fmt.Errorf("journaled fleet pass: %d of %d campaigns failed", p.failed, p.attempted)
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m["fleet.journal.evals_per_s"] = float64(runs) / wall.Seconds()
	m["fleet.journal.reportbatch_rtt_us"] = mean(tr.durations("fleet.journal./fleet/reportbatch")) * 1e6
	m["fleet.journal.bytes_per_eval"] = float64(st.Size()) / float64(runs)
	m["fleet.journal.heap_mb"] = (float64(liveHeap()) - float64(heap0)) / 1e6
	return nil
}

// timingTransport is the workers' HTTP transport. With a tracer attached
// it records one fleet span per request, named prefix+path, and counts
// requests, body bytes both ways and the tasks each batch claim grants.
type timingTransport struct {
	next   *http.Transport
	prefix string
	tr     atomic.Pointer[tracer]

	requests, bytes, batchClaims, batchTasks atomic.Int64
}

func (t *timingTransport) attach(tr *tracer) { t.tr.Store(tr) }

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	if tr == nil {
		return t.next.RoundTrip(req)
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	// Read the whole reply inside the span: the round trip ends when the
	// worker has the body, not the headers.
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	tr.record(-1, layerFleet, t.prefix+req.URL.Path, t0, time.Since(t0))
	t.requests.Add(1)
	t.bytes.Add(max(req.ContentLength, 0) + int64(len(body)))
	if req.URL.Path == "/fleet/claimbatch" && resp.StatusCode == http.StatusOK {
		var cb struct {
			Tasks []json.RawMessage `json:"tasks"`
		}
		if json.Unmarshal(body, &cb) == nil {
			t.batchClaims.Add(1)
			t.batchTasks.Add(int64(len(cb.Tasks)))
		}
	}
	return resp, nil
}

// report fills the per-request fleet metrics over evals evaluations.
func (t *timingTransport) report(m map[string]float64, evals float64) {
	tr := t.tr.Load()
	for _, path := range []string{"claim", "report", "claimbatch", "reportbatch", "heartbeat"} {
		m["fleet."+path+"_rtt_us"] = mean(tr.durations(t.prefix+"/fleet/"+path)) * 1e6
	}
	if evals > 0 {
		m["fleet.requests_per_eval"] = float64(t.requests.Load()) / evals
		m["fleet.request_bytes_per_eval"] = float64(t.bytes.Load()) / evals
	}
	if n := t.batchClaims.Load(); n > 0 {
		m["fleet.tasks_per_claimbatch"] = float64(t.batchTasks.Load()) / float64(n)
	}
}

// evalRecorder wraps the coordinator's RemoteEvaluator to time each
// remote evaluation and keep the last campaign's requests and outcomes,
// which replay re-executes locally through the facade's EvalService.
type evalRecorder struct {
	tr *tracer

	mu   sync.Mutex
	last spec
	reqs []recordedEval
}

type recordedEval struct {
	req   core.EvalRequest
	total float64
}

func (r *evalRecorder) wrap(ev core.RemoteEvaluator, s spec, root int) core.RemoteEvaluator {
	r.mu.Lock()
	r.last, r.reqs = s, r.reqs[:0]
	r.mu.Unlock()
	return remoteFunc(func(ctx context.Context, req core.EvalRequest) (core.EvalOutcome, error) {
		sp := r.tr.begin(root, layerFleet, "fleet.remote_eval")
		out, err := ev.Evaluate(ctx, req)
		r.tr.end(sp)
		if err == nil {
			req.CVs = append(req.CVs[:0:0], req.CVs...)
			r.mu.Lock()
			r.reqs = append(r.reqs, recordedEval{req, out.Total})
			r.mu.Unlock()
		}
		return out, err
	})
}

type remoteFunc func(context.Context, core.EvalRequest) (core.EvalOutcome, error)

func (f remoteFunc) Evaluate(ctx context.Context, req core.EvalRequest) (core.EvalOutcome, error) {
	return f(ctx, req)
}

// replay executes the last campaign's claims locally through
// EvalService.Evaluate — the call a worker makes per claim — and checks
// that each outcome matches what the fleet returned.
func (r *evalRecorder) replay(c *corpus, m map[string]float64) error {
	r.mu.Lock()
	s, reqs := r.last, append([]recordedEval(nil), r.reqs...)
	r.mu.Unlock()
	if len(reqs) == 0 {
		return errors.New("no fleet evaluation was recorded")
	}
	svc, err := c.tuner(s, 1, funcytuner.Options{}).EvalService(c.progs[s.Program], c.inputs[s.Program])
	if err != nil {
		return err
	}
	root := r.tr.begin(-1, "", "probe")
	defer r.tr.end(root)
	ctx := context.Background()
	for _, re := range reqs {
		sp := r.tr.begin(root, layerFleet, "fleet.eval_service")
		out, err := svc.Evaluate(ctx, re.req)
		r.tr.end(sp)
		if err != nil {
			return err
		}
		if math.Float64bits(out.Total) != math.Float64bits(re.total) {
			return fmt.Errorf("%s claim %s/%d: local outcome %v, fleet outcome %v", s.key(), re.req.Phase, re.req.Sample, out.Total, re.total)
		}
	}
	m["fleet.eval_service_us"] = mean(r.tr.durations("fleet.eval_service")) * 1e6
	return nil
}
