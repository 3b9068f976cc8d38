package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/server"
	"funcytuner/internal/trace"
)

// daemonClients is the number of closed-loop HTTP clients.
const daemonClients = 2

// daemonBench is the daemon workload: a funcytunerd job manager with a
// results repository, skip-exist and a gate of nproc slots, served over
// loopback HTTP to two closed-loop clients.
type daemonBench struct {
	e      *env
	c      *corpus
	repo   *funcytuner.ResultRepo
	gate   *server.Gate
	mgr    *server.Manager
	hs     *http.Server
	served chan struct{} // closed when the HTTP server goroutine returns
	base   string
	hc     *http.Client
	gens   []*daemonGen
	chk    *checker
	heap0  uint64 // live heap before the first job, for per-job retention
}

func setupDaemon(e *env) (instance, error) {
	c, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	repo, err := funcytuner.OpenResultRepo(filepath.Join(e.work, "repo"))
	if err != nil {
		return nil, err
	}
	gate := server.NewGate(e.nproc)
	mgr, err := server.NewManager(server.Config{Dir: filepath.Join(e.work, "jobs"), Gate: gate, Repo: repo, SkipExist: true})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &daemonBench{
		e: e, c: c, repo: repo, gate: gate, mgr: mgr,
		hs:     &http.Server{Handler: server.NewServer(mgr), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		hc:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}},
		chk:    newChecker(),
	}
	go func() {
		defer close(b.served)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	b.heap0 = liveHeap()
	// Seed the repository: each client completes its own specs as fresh
	// jobs, whose fingerprints become the references resubmits must match.
	errs := make([]error, daemonClients)
	var wg sync.WaitGroup
	for ci := 0; ci < daemonClients; ci++ {
		g := newDaemonGen(e.seed, ci)
		b.gens = append(b.gens, g)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for _, s := range g.stored {
				jr, err := b.job(s, nil, -1)
				if err == nil && (jr.status.ServedFromRepo || jr.result.Runs != 2*samples) {
					err = fmt.Errorf("set-up job %s was not a full campaign", s.key())
				}
				if err != nil {
					errs[ci] = err
					return
				}
				b.chk.check(s, jr.fp)
			}
		}(ci)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *daemonBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := b.mgr.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: daemon drain:", err)
	}
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	<-b.served
	b.hc.CloseIdleConnections()
}

// jobRun is one job's client-side outcome.
type jobRun struct {
	status server.Status
	result server.Result
	fp     uint64
	polls  int
}

// job submits s, polls until the job ends and fetches its result, with
// spans under root when tr is set.
func (b *daemonBench) job(s spec, tr *tracer, root int) (jobRun, error) {
	var jr jobRun
	body, _ := json.Marshal(server.JobSpec{ // a struct of strings and ints always encodes
		Benchmark: s.Program, Machine: machine, Samples: samples, TopX: topX, Seed: s.Seed, Technique: s.Technique,
	})
	sp := tr.begin(root, layerServer, "server.submit")
	err := b.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &jr.status)
	tr.end(sp)
	if err != nil {
		return jr, err
	}
	id := jr.status.ID
	wait := 500 * time.Microsecond
	for jr.status.State == server.StateRunning || jr.status.State == server.StateCancelling {
		time.Sleep(wait)
		if wait < 5*time.Millisecond {
			wait = wait * 5 / 4
		}
		jr.polls++
		sp := tr.begin(root, layerServer, "server.poll")
		err := b.call(http.MethodGet, "/jobs/"+id, nil, http.StatusOK, &jr.status)
		tr.end(sp)
		if err != nil {
			return jr, err
		}
	}
	if jr.status.State != server.StateDone {
		return jr, fmt.Errorf("job %s ended %s: %s", id, jr.status.State, jr.status.Error)
	}
	sp = tr.begin(root, layerServer, "server.result")
	err = b.call(http.MethodGet, "/jobs/"+id+"/result", nil, http.StatusOK, &jr.result)
	tr.end(sp)
	if err != nil {
		return jr, err
	}
	jr.fp, err = strconv.ParseUint(jr.result.Fingerprint, 16, 64)
	return jr, err
}

// call makes one request to the daemon and decodes the JSON reply.
func (b *daemonBench) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort, for the error text
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// daemonSample is one completed op, as a client saw it.
type daemonSample struct {
	fresh   bool
	ms      float64
	speedup float64
	runs    int64
	polls   int
	jobID   string
}

func (b *daemonBench) measure(d time.Duration, tr *tracer) (*pass, error) {
	p := &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
	rt := startRuntimeProbe()
	var mu sync.Mutex
	var samplesDone []daemonSample
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < daemonClients; ci++ {
		g := b.gens[ci]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				s, fresh := g.next()
				// The whole job is one call into the server: time the
				// client spends waiting between polls is the daemon's.
				root := tr.begin(-1, layerServer, "server.job")
				t0 := time.Now()
				jr, err := b.job(s, tr, root)
				elapsed := time.Since(t0)
				tr.end(root)
				ok := err == nil && b.verify(s, fresh, jr)
				if err != nil {
					fmt.Printf("daemon %s: %v\n", s.key(), err)
				}
				mu.Lock()
				p.attempted++
				if !ok {
					p.failed++
				} else {
					samplesDone = append(samplesDone, daemonSample{fresh, ms(elapsed), jr.result.Speedup, jr.result.Runs, jr.polls, jr.status.ID})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var served, fresh, speedups []float64
	var runs int64
	for _, s := range samplesDone {
		if !s.fresh {
			served = append(served, s.ms)
			continue
		}
		fresh = append(fresh, s.ms)
		speedups = append(speedups, s.speedup)
		runs += s.runs
	}
	loop := time.Since(start)
	// A daemon campaign request as the clients mostly see it is a
	// resubmit the repository serves. Fresh-job latency rides on the
	// shared disk's fsync latency (each job flushes its checkpoint 80
	// times) and is too noisy to bound; it is printed, and its cost shows
	// in requests_per_s and evals_per_s.
	p.latencies = map[string][]float64{"campaign_ms": served, "job_ms": fresh}
	p.e2e["campaign_ms.p50"] = percentile(served, 50)
	p.e2e["campaign_ms.p90"] = percentile(served, 90)
	p.e2e["requests_per_s"] = float64(len(samplesDone)) / loop.Seconds()
	p.e2e["evals_per_s"] = float64(runs) / loop.Seconds()
	p.e2e["speedup_geomean"] = geomean(speedups)
	rt.finish(p, len(samplesDone))
	if tr != nil {
		if err := b.probe(tr, p.layer, samplesDone); err != nil {
			return nil, err
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

// verify checks one job: a fresh spec must run a full campaign; a
// resubmit must be served from the repository with the fingerprint of
// the set-up job that stored it.
func (b *daemonBench) verify(s spec, fresh bool, jr jobRun) bool {
	good := b.chk.check(s, jr.fp)
	if fresh {
		good = good && !jr.status.ServedFromRepo && jr.result.Runs == 2*samples
	} else {
		good = good && jr.status.ServedFromRepo
	}
	if !good {
		fmt.Printf("daemon %s: wrong outcome (fresh %v, served %v, runs %d, fingerprint %s)\n",
			s.key(), fresh, jr.status.ServedFromRepo, jr.result.Runs, jr.result.Fingerprint)
	}
	return good
}

// probe times the layers a daemon job passes through that the HTTP
// clients cannot see: repository reads and writes, the served Tune, trace
// replay and checkpoint flushes, each on the state the traced pass left.
func (b *daemonBench) probe(tr *tracer, m map[string]float64, done []daemonSample) error {
	var polls []float64
	var servedID, freshID string
	for _, s := range done {
		polls = append(polls, float64(s.polls))
		if s.fresh {
			freshID = s.jobID
		} else {
			servedID = s.jobID
		}
	}
	m["server.submit_ms"] = mean(tr.durations("server.submit")) * 1e3
	m["server.polls_per_job"] = mean(polls)
	m["server.gate_high_water"] = float64(b.gate.HighWater())
	if jobs, _ := b.mgr.Counts(); jobs > 0 {
		m["server.heap_kb_per_retained_job"] = (float64(liveHeap()) - float64(b.heap0)) / 1024 / float64(jobs)
	}

	root := tr.begin(-1, "", "probe")
	defer tr.end(root)
	// Repository reads of every stored entry, then writes of the same
	// bodies into a scratch repository.
	dir, err := os.MkdirTemp(b.e.work, "probe-repo-")
	if err != nil {
		return err
	}
	scratch, err := funcytuner.OpenResultRepo(dir)
	if err != nil {
		return err
	}
	var sizes []float64
	for _, key := range b.repo.Keys() {
		sp := tr.begin(root, layerResultrepo, "resultrepo.get")
		body, ok := b.repo.Get(key)
		tr.end(sp)
		if !ok {
			return fmt.Errorf("repository entry %016x unreadable", key)
		}
		sizes = append(sizes, float64(len(body))/1024)
		sp = tr.begin(root, layerResultrepo, "resultrepo.put")
		err := scratch.Put(key, body)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["resultrepo.get_us"] = mean(tr.durations("resultrepo.get")) * 1e6
	m["resultrepo.put_ms"] = mean(tr.durations("resultrepo.put")) * 1e3
	m["resultrepo.entry_kb"] = mean(sizes)

	// The facade's served Tune for every set-up spec: one repository
	// lookup, fingerprint re-verification and report rebuild.
	for _, g := range b.gens {
		for _, s := range g.stored {
			tuner := b.c.tuner(s, b.e.nproc, funcytuner.Options{Repo: b.repo, SkipExist: true})
			sp := tr.begin(root, layerResultrepo, "resultrepo.serve_tune")
			rep, err := tuner.Tune(b.c.progs[s.Program], b.c.inputs[s.Program])
			tr.end(sp)
			if err != nil {
				return err
			}
			if !rep.Served || !b.chk.check(s, rep.Fingerprint()) {
				return fmt.Errorf("served Tune of %s does not match the stored job", s.key())
			}
		}
	}
	m["resultrepo.serve_tune_ms"] = mean(tr.durations("resultrepo.serve_tune")) * 1e3

	// Trace replay of a served job's trace, as the serve path does.
	if servedID != "" {
		req, err := http.NewRequest(http.MethodGet, b.base+"/jobs/"+servedID+"/trace", nil)
		if err != nil {
			return err
		}
		resp, err := b.hc.Do(req)
		if err != nil {
			return err
		}
		t, err := trace.ReadJSONL(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			rec := trace.NewRecorder()
			sp := tr.begin(root, layerTrace, "trace.replay")
			rec.Replay(t)
			tr.end(sp)
		}
		m["trace.replay_ms"] = mean(tr.durations("trace.replay")) * 1e3
	}

	// Checkpoint flushes of a fresh job's full-campaign checkpoint.
	if freshID != "" {
		j, ok := b.mgr.Get(freshID)
		if !ok {
			return fmt.Errorf("job %s vanished", freshID)
		}
		ck, err := core.LoadCheckpointFile(j.Status().Checkpoint)
		if err != nil {
			return err
		}
		path := filepath.Join(b.e.work, "probe-checkpoint.json")
		for i := 0; i < 5; i++ {
			cp := core.NewCheckpointer(path, 0)
			if err := cp.Resume(ck); err != nil {
				return err
			}
			sp := tr.begin(root, layerCore, "core.checkpoint_flush")
			err := cp.Flush()
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		m["core.checkpoint_flush_ms"] = mean(tr.durations("core.checkpoint_flush")) * 1e3
		m["core.checkpoint_kb"] = float64(st.Size()) / 1024
	}
	return nil
}

// liveHeap returns the live heap after a forced GC. The second cycle
// also frees what sync.Pools kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
