package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"funcytuner/internal/fleet"
)

// startFleetWorkers runs n fleet workers against the server's mounted
// /fleet/ routes until the test ends.
func startFleetWorkers(t *testing.T, baseURL string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:          "w-" + string(rune('a'+i)),
			Coordinator: baseURL,
			Concurrency: 2,
			Poll:        200 * time.Millisecond,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // cancelled at cleanup
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
}

// TestDistributedJobMatchesLocalFingerprint submits the same seeded spec
// twice — once in-process, once dispatched to fleet workers over the
// server's own /fleet/ routes — and demands identical fingerprints.
func TestDistributedJobMatchesLocalFingerprint(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		LeaseTTL:  2 * time.Second,
		Heartbeat: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mgr := newTestManager(t, Config{Fleet: coord})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	startFleetWorkers(t, ts.URL, 2)

	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "fleet-vs-local", Workers: 4, FaultRate: 1}
	run := func(distributed bool) Result {
		s := spec
		s.Distributed = distributed
		resp := postJSON(t, ts.URL+"/jobs", s)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit (distributed=%v): got %d, want 202", distributed, resp.StatusCode)
		}
		st := decode[Status](t, resp)
		j, ok := mgr.Get(st.ID)
		if !ok {
			t.Fatalf("job %s not in manager", st.ID)
		}
		waitJob(t, j)
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result (distributed=%v): got %d; status %+v", distributed, resp.StatusCode, j.Status())
		}
		return decode[Result](t, resp)
	}
	local := run(false)
	remote := run(true)
	if local.Fingerprint != remote.Fingerprint {
		t.Errorf("distributed fingerprint %s != local %s", remote.Fingerprint, local.Fingerprint)
	}
}

// TestDistributedJobRequiresFleet rejects distributed submissions when
// no coordinator is configured.
func TestDistributedJobRequiresFleet(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/jobs", JobSpec{Benchmark: "CL", Machine: "broadwell", Distributed: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("got %d, want 400", resp.StatusCode)
	}
}

// TestHealthzReportsState covers the probe payload: job counts, the
// fleet section when a coordinator is mounted, and 503 once draining.
func TestHealthzReportsState(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	mgr := newTestManager(t, Config{Fleet: coord})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: got %d, want 200", resp.StatusCode)
	}
	h := decode[healthView](t, resp)
	if h.Status != "ok" || h.Draining || h.Jobs != 0 || h.Running != 0 {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Fleet == nil {
		t.Fatal("healthz missing fleet section with a coordinator configured")
	}
	if h.Fleet.ActiveLeases != 0 || h.Fleet.Workers != 0 {
		t.Fatalf("fleet health = %+v", h.Fleet)
	}

	// A worker's first claim registers it; the probe sees the fleet grow.
	if _, err := coord.ClaimBatch(context.Background(), "probe-worker", 0, 1); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h = decode[healthView](t, resp)
	if h.Fleet.Workers != 1 {
		t.Fatalf("fleet workers = %d, want 1", h.Fleet.Workers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: got %d, want 503", resp.StatusCode)
	}
	h = decode[healthView](t, resp)
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz = %+v", h)
	}
}

// TestReattachRecoveredFleetJob is the daemon-level restart story: a
// distributed job is mid-flight when the coordinator process dies; a new
// manager built over a coordinator recovered from the same journal
// re-attaches the job automatically, the re-run completes against the
// journal-buffered evaluations, and its fingerprint matches a local run
// of the same spec. The probe endpoint reports the recovery.
func TestReattachRecoveredFleetJob(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal")
	spec := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 20, TopX: 5, Seed: "reattach", Workers: 4, FaultRate: 1, Distributed: true}
	ccfg := fleet.CoordinatorConfig{
		LeaseTTL:    2 * time.Second,
		Heartbeat:   200 * time.Millisecond,
		JournalPath: journal,
	}

	// Daemon incarnation 1: run distributed, die mid-flight.
	coord1, err := fleet.NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := newTestManager(t, Config{Fleet: coord1})
	ts1 := httptest.NewServer(NewServer(mgr1))
	defer ts1.Close()
	startFleetWorkers(t, ts1.URL, 2)
	resp := postJSON(t, ts1.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", resp.StatusCode)
	}
	st := decode[Status](t, resp)
	j1, ok := mgr1.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in manager", st.ID)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		js := coord1.JournalState()
		if js != nil && js.Records >= 15 && (coord1.ActiveLeases() > 0 || coord1.QueueDepth() > 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never accumulated in-flight work to crash on")
		}
		time.Sleep(2 * time.Millisecond)
	}
	coord1.Kill()
	waitJob(t, j1)
	if got := j1.Status().State; got != StateFailed {
		t.Fatalf("job state after coordinator death = %q, want %q", got, StateFailed)
	}

	// Daemon incarnation 2: recover from the journal, re-attach, finish.
	coord2, err := fleet.NewCoordinator(ccfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coord2.Close()
	mgr2 := newTestManager(t, Config{Fleet: coord2})
	reattached, err := mgr2.ReattachFleetJobs()
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if len(reattached) != 1 {
		t.Fatalf("re-attached %d jobs, want 1", len(reattached))
	}
	ts2 := httptest.NewServer(NewServer(mgr2))
	defer ts2.Close()
	startFleetWorkers(t, ts2.URL, 2)
	waitJob(t, reattached[0])
	res, err := reattached[0].Result()
	if err != nil {
		t.Fatalf("re-attached job result: %v (status %+v)", err, reattached[0].Status())
	}

	// The probe shows what recovery did.
	hresp, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[healthView](t, hresp)
	if h.Fleet == nil || h.Fleet.Journal == nil {
		t.Fatalf("healthz missing journal section: %+v", h.Fleet)
	}
	if h.Fleet.RecoveredTasks < 1 {
		t.Errorf("healthz recovered_tasks = %d, want >= 1", h.Fleet.RecoveredTasks)
	}
	if h.Fleet.Journal.Path != journal || h.Fleet.Journal.Records < 15 {
		t.Errorf("healthz journal = %+v", h.Fleet.Journal)
	}

	// Byte-identical to a local run of the same spec.
	local := spec
	local.Distributed = false
	lresp := postJSON(t, ts2.URL+"/jobs", local)
	if lresp.StatusCode != http.StatusAccepted {
		t.Fatalf("local submit: got %d, want 202", lresp.StatusCode)
	}
	lst := decode[Status](t, lresp)
	lj, _ := mgr2.Get(lst.ID)
	waitJob(t, lj)
	lres, err := lj.Result()
	if err != nil {
		t.Fatalf("local result: %v", err)
	}
	if res.Fingerprint != lres.Fingerprint {
		t.Errorf("re-attached fingerprint %s != local %s", res.Fingerprint, lres.Fingerprint)
	}
}
