package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

const testTimeout = 30 * time.Second

// waitJob blocks until the job reaches a terminal state.
func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(testTimeout):
		t.Fatalf("job %s did not finish within %v", j.ID, testTimeout)
	}
}

func newTestManager(t *testing.T, gate Config) *Manager {
	t.Helper()
	cfg := gate
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestJobLifecycle drives the whole HTTP surface: submit, status, list,
// result, progress, trace and metrics for a small job that runs to
// completion.
func TestJobLifecycle(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(4)})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "lifecycle", Workers: 2}
	resp := postJSON(t, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	st := decode[Status](t, resp)
	if st.ID == "" || st.State != StateRunning {
		t.Fatalf("submit status = %+v", st)
	}

	j, ok := mgr.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in manager", st.ID)
	}
	waitJob(t, j)

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	st = decode[Status](t, resp)
	if st.State != StateDone {
		t.Fatalf("state = %q (err %q), want done", st.State, st.Error)
	}
	if !st.Resumable {
		t.Fatal("finished job should have a checkpoint on disk")
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	res := decode[Result](t, resp)
	if res.Algorithm != "CFR" || res.Speedup <= 0 || len(res.Fingerprint) != 16 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Speedups) == 0 || res.Evaluations <= 0 {
		t.Fatalf("result missing speedups/evaluations: %+v", res)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(prog), "done") {
		t.Fatalf("progress stream missing final line: %q", prog)
	}

	resp, err = http.Get(ts.URL + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(bytes.Split(bytes.TrimSpace(tr), []byte("\n"))) < 10 {
		t.Fatalf("trace stream suspiciously short: %d bytes", len(tr))
	}

	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[[]Status](t, resp)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mv := decode[metricsView](t, resp)
	if mv.Server.Counters[MetricJobsDone] != 1 || mv.Server.Counters[MetricJobsSubmitted] != 1 {
		t.Fatalf("metrics = %+v", mv.Server.Counters)
	}
	if mv.Gate == nil || mv.Gate.Slots != 4 || mv.Gate.HighWater < 1 {
		t.Fatalf("gate view = %+v", mv.Gate)
	}
}

// TestAPIRejections covers the failure paths: malformed and invalid
// specs, unknown jobs, and results requested before completion.
func TestAPIRejections(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	for _, spec := range []JobSpec{
		{Benchmark: "no-such-app"},
		{Machine: "no-such-machine"},
		{Samples: -1},
		{TopX: -1},
		{Workers: -3},
		{CheckpointEvery: -1},
		{FaultRate: -0.5},
		{Adaptive: true, Compare: true},
		{Resume: "job-9999"},
	} {
		resp := postJSON(t, ts.URL+"/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: got %d, want 400", spec, resp.StatusCode)
		}
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: got %d, want 400", resp.StatusCode)
	}

	for _, path := range []string{"/jobs/nope", "/jobs/nope/result", "/jobs/nope/progress", "/jobs/nope/trace"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/jobs/nope/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: got %d, want 404", resp.StatusCode)
	}
}

// TestSubmitRejectsOversizedBody: a POST /jobs body past the size bound
// is refused with 400 before any job exists, even when it is otherwise a
// well-formed spec.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/jobs", JobSpec{Seed: strings.Repeat("s", maxJobSpecBytes)})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: got %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "too large") {
		t.Errorf("oversized body: error %s does not say the body is too large", body)
	}
	if jobs := mgr.List(); len(jobs) != 0 {
		t.Errorf("oversized body created %d jobs", len(jobs))
	}
}

// TestSubmitBoundsBudget: a sample budget past maxJobSamples, or a
// pruning width wider than the budget it prunes, answers 400 at submit
// time with an error naming the field, and creates no job. The bounds
// themselves stay legal.
func TestSubmitBoundsBudget(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	for name, tc := range map[string]struct {
		spec JobSpec
		want string
	}{
		"samples above bound": {JobSpec{Samples: maxJobSamples + 1}, "samples must be <= 100000, got 100001"},
		"topx above samples":  {JobSpec{Samples: 40, TopX: 41}, "topx 41 exceeds samples 40"},
	} {
		t.Run(name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/jobs", tc.spec)
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("got %d, want 400", resp.StatusCode)
			}
			if msg := decode[map[string]string](t, resp)["error"]; !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not say %q", msg, tc.want)
			}
		})
	}
	if jobs := mgr.List(); len(jobs) != 0 {
		t.Errorf("refused specs created %d jobs", len(jobs))
	}
	for _, spec := range []JobSpec{{Samples: maxJobSamples}, {Samples: 40, TopX: 40}, {TopX: 40}} {
		if err := spec.validate(); err != nil {
			t.Errorf("spec %+v refused: %v", spec, err)
		}
	}
}

// blockGate holds every evaluation until its job is cancelled, so an
// accepted job costs set-up only.
type blockGate struct{}

func (blockGate) Acquire(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

func (blockGate) Release() {}

// FuzzJobSpec posts arbitrary bodies to POST /jobs. Whatever the body,
// the handler must not panic and must answer 202 with the new job's
// status or 400 with an error; a 400 creates no job, a 202 exactly one,
// whose stored spec passes validation. Accepted jobs never evaluate
// (blockGate) and are drained before the next input.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"benchmark":"swim","samples":4,"topx":2,"seed":"fuzz"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"samples":-1}`))
	f.Add([]byte(`{"samples":40,"topx":41}`))
	f.Add([]byte(`{"technique":"bo","compare":true}`))
	f.Add([]byte(`{"technique":"ga","warm_start":true}`))
	f.Add([]byte(`{"distributed":true}`))
	f.Add([]byte(`{"resume":"job-0001"}`))
	f.Add([]byte(`{"benchmark":"nope"}`))
	f.Add([]byte(`{"seed":"x","extra":1}`))
	f.Add([]byte(`{"seed":"a"}{"seed":"b"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		mgr := newTestManager(t, Config{Gate: blockGate{}})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
			defer cancel()
			if err := mgr.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		}()
		rec := httptest.NewRecorder()
		NewServer(mgr).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		jobs := mgr.List()
		switch rec.Code {
		case http.StatusBadRequest:
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("400 without an error message: %q", rec.Body.Bytes())
			}
			if len(jobs) != 0 {
				t.Fatalf("refused spec created %d jobs", len(jobs))
			}
		case http.StatusAccepted:
			var st Status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("202 without a job status: %q", rec.Body.Bytes())
			}
			j, ok := mgr.Get(st.ID)
			if len(jobs) != 1 || !ok {
				t.Fatalf("accepted spec created %d jobs, job %s found: %v", len(jobs), st.ID, ok)
			}
			spec := j.Spec
			if err := spec.validate(); err != nil {
				t.Fatalf("accepted spec %+v fails validation: %v", j.Spec, err)
			}
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// stallGate passes through n acquisitions, then blocks the n+1th until
// its context is cancelled; every later acquisition passes freely. With
// Workers=1 this cancels a job at a deterministic evaluation boundary.
type stallGate struct {
	mu      sync.Mutex
	n       int
	tripped bool
	stalled chan struct{}
}

func newStallGate(n int) *stallGate {
	return &stallGate{n: n, stalled: make(chan struct{})}
}

func (g *stallGate) Acquire(ctx context.Context) error {
	g.mu.Lock()
	if g.tripped {
		g.mu.Unlock()
		return nil
	}
	if g.n > 0 {
		g.n--
		g.mu.Unlock()
		return nil
	}
	g.tripped = true
	close(g.stalled)
	g.mu.Unlock()
	<-ctx.Done()
	return ctx.Err()
}

func (g *stallGate) Release() {}

// TestCancelResumeFingerprintEquality is the service-level acceptance
// test: cancel a job mid-run, confirm it drained to a resumable
// checkpoint, resume it as a new job, and require the resumed Report's
// fingerprint to be bit-identical to an uninterrupted run of the same
// spec.
func TestCancelResumeFingerprintEquality(t *testing.T) {
	gate := newStallGate(7)
	mgr := newTestManager(t, Config{Gate: gate})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 16, TopX: 4,
		Seed: "cancel-resume", Workers: 1, CheckpointEvery: 1}

	st := decode[Status](t, postJSON(t, ts.URL+"/jobs", spec))
	select {
	case <-gate.stalled:
	case <-time.After(testTimeout):
		t.Fatal("job never reached the stall point")
	}
	cresp := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", nil)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: got %d, want 200", cresp.StatusCode)
	}
	j, _ := mgr.Get(st.ID)
	waitJob(t, j)
	st = j.Status()
	if st.State != StateCancelled {
		t.Fatalf("state after cancel = %q (err %q), want cancelled", st.State, st.Error)
	}
	if !st.Resumable {
		t.Fatal("cancelled job must leave a resumable checkpoint")
	}

	resumeSpec := spec
	resumeSpec.Resume = st.ID
	rst := decode[Status](t, postJSON(t, ts.URL+"/jobs", resumeSpec))
	rj, _ := mgr.Get(rst.ID)
	waitJob(t, rj)
	resumed, err := rj.Result()
	if err != nil {
		t.Fatalf("resumed job: %v (status %+v)", err, rj.Status())
	}

	ctrl := decode[Status](t, postJSON(t, ts.URL+"/jobs", spec))
	cj, _ := mgr.Get(ctrl.ID)
	waitJob(t, cj)
	control, err := cj.Result()
	if err != nil {
		t.Fatalf("control job: %v (status %+v)", err, cj.Status())
	}

	if resumed.Fingerprint != control.Fingerprint {
		t.Fatalf("cancel+resume fingerprint %s != uninterrupted %s",
			resumed.Fingerprint, control.Fingerprint)
	}
}

// TestConcurrentJobsBoundedGate runs 8 jobs at once through a 3-slot
// gate and checks (a) all complete, (b) in-flight evaluations never
// exceeded the gate's capacity, and (c) the shared gate does not leak
// into results: two jobs with identical specs fingerprint identically.
func TestConcurrentJobsBoundedGate(t *testing.T) {
	gate := NewGate(3)
	mgr := newTestManager(t, Config{Gate: gate})

	const njobs = 8
	jobs := make([]*Job, njobs)
	for i := range jobs {
		seed := fmt.Sprintf("conc-%d", i)
		if i == njobs-1 {
			seed = "conc-0" // duplicate of job 0: must fingerprint equal
		}
		j, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell",
			Samples: 12, TopX: 4, Seed: seed, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		waitJob(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s: state %q (err %q)", j.ID, st.State, st.Error)
		}
	}
	if hw := gate.HighWater(); hw > gate.Slots() {
		t.Fatalf("gate high-water %d exceeds capacity %d", hw, gate.Slots())
	}
	if gate.Busy() != 0 {
		t.Fatalf("gate leaked %d slots", gate.Busy())
	}
	first, err := jobs[0].Result()
	if err != nil {
		t.Fatal(err)
	}
	dup, err := jobs[njobs-1].Result()
	if err != nil {
		t.Fatal(err)
	}
	if first.Fingerprint != dup.Fingerprint {
		t.Fatalf("gate contention changed results: %s != %s", first.Fingerprint, dup.Fingerprint)
	}
}

// TestDrainCancelsAndCheckpoints is the graceful-shutdown contract:
// Drain cancels every running job, each drains to a valid resumable
// checkpoint, and new submissions are refused afterwards.
func TestDrainCancelsAndCheckpoints(t *testing.T) {
	gate := newStallGate(5)
	mgr := newTestManager(t, Config{Gate: gate})

	j, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell",
		Samples: 16, TopX: 4, Seed: "drain", Workers: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.stalled:
	case <-time.After(testTimeout):
		t.Fatal("job never reached the stall point")
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := j.Status()
	if st.State != StateCancelled {
		t.Fatalf("drained job state = %q, want cancelled", st.State)
	}
	if !st.Resumable {
		t.Fatal("drained job must leave a resumable checkpoint")
	}
	if fi, err := os.Stat(st.Checkpoint); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint %s: err=%v", st.Checkpoint, err)
	}

	if _, err := mgr.Submit(JobSpec{}); err == nil {
		t.Fatal("submit after drain should be refused")
	}
}

// TestProgressFollowStreamsLive attaches a follower before the job
// finishes and checks it receives the final line and terminates.
func TestProgressFollowStreamsLive(t *testing.T) {
	l := newLineLog()
	got := make(chan []string, 1)
	go func() {
		var lines []string
		_ = l.Follow(context.Background(), func(s string) error {
			lines = append(lines, s)
			return nil
		})
		got <- lines
	}()
	fmt.Fprintf(l, "eval 1/10\n")
	fmt.Fprintf(l, "eval 2/10\npartial")
	l.Close()
	select {
	case lines := <-got:
		want := []string{"eval 1/10", "eval 2/10", "partial"}
		if len(lines) != len(want) {
			t.Fatalf("lines = %q, want %q", lines, want)
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Fatalf("lines[%d] = %q, want %q", i, lines[i], want[i])
			}
		}
	case <-time.After(testTimeout):
		t.Fatal("follower never terminated")
	}

	// A cancelled follower stops even if the log never closes.
	l2 := newLineLog()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- l2.Follow(ctx, func(string) error { return nil })
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Follow should return ctx error")
		}
	case <-time.After(testTimeout):
		t.Fatal("cancelled follower hung")
	}
}

// TestGateContextCancel verifies a full gate does not deadlock a
// cancelled waiter.
func TestGateContextCancel(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Acquire(ctx); err == nil {
		t.Fatal("acquire on full gate with cancelled ctx should fail")
	}
	g.Release()
	if g.Busy() != 0 {
		t.Fatalf("busy = %d after release", g.Busy())
	}
	if g.HighWater() != 1 {
		t.Fatalf("high-water = %d, want 1", g.HighWater())
	}
}
