package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"funcytuner/internal/fleet"
)

// TestReadTimeoutSparesLongPoll runs the daemon's own server over a
// fleet coordinator, with the read bound shortened from readTimeout so
// the test is fast. A claim long-poll that outlasts the bound still
// answers, because net/http clears the read deadline once the body is
// read; a client that stalls mid-body is cut off at the bound.
func TestReadTimeoutSparesLongPoll(t *testing.T) {
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := newHTTPServer("", coord.Handler())
	if srv.ReadTimeout != readTimeout || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("server read bounds = %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	const bound = 200 * time.Millisecond
	srv.ReadTimeout = bound
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	start := time.Now()
	resp, err := http.Post("http://"+addr+"/fleet/claimbatch", "application/json",
		strings.NewReader(fmt.Sprintf(`{"worker":"w1","wait_millis":%d,"max":1}`, (3*bound).Milliseconds())))
	if err != nil {
		t.Fatalf("long poll past the read bound: %v", err)
	}
	resp.Body.Close()
	if took := time.Since(start); resp.StatusCode != http.StatusNoContent || took < 3*bound {
		t.Fatalf("long poll answered %d after %v, want 204 after at least %v", resp.StatusCode, took, 3*bound)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start = time.Now()
	fmt.Fprint(conn, "POST /fleet/claimbatch HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"worker\"")
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, _ := io.ReadAll(conn)
	if took := time.Since(start); !strings.HasPrefix(string(reply), "HTTP/1.1 400") || took < bound {
		t.Fatalf("stalled body answered %q after %v, want a 400 after the %v bound", reply, took, bound)
	}
}

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = must succeed
		check   func(t *testing.T, cfg config)
	}{
		{
			name: "defaults-are-local",
			args: nil,
			check: func(t *testing.T, cfg config) {
				if cfg.mode != "local" {
					t.Errorf("mode = %q", cfg.mode)
				}
				if cfg.globalWorkers < 1 {
					t.Errorf("globalWorkers = %d", cfg.globalWorkers)
				}
			},
		},
		{
			name: "coordinator-defaults",
			args: []string{"-mode=coordinator"},
			check: func(t *testing.T, cfg config) {
				if cfg.leaseTTL <= 0 {
					t.Errorf("leaseTTL = %v", cfg.leaseTTL)
				}
				if cfg.maxLeaseLosses < 1 {
					t.Errorf("maxLeaseLosses = %d", cfg.maxLeaseLosses)
				}
			},
		},
		{
			name: "worker-ok",
			args: []string{"-mode=worker", "-coordinator=http://127.0.0.1:7461", "-concurrency=3"},
			check: func(t *testing.T, cfg config) {
				if cfg.coordinator != "http://127.0.0.1:7461" || cfg.concurrency != 3 {
					t.Errorf("cfg = %+v", cfg)
				}
			},
		},
		{
			name: "explicit-heartbeat-below-ttl",
			args: []string{"-mode=coordinator", "-lease-ttl=10s", "-heartbeat=2s"},
			check: func(t *testing.T, cfg config) {
				if cfg.heartbeat != 2*time.Second {
					t.Errorf("heartbeat = %v", cfg.heartbeat)
				}
			},
		},
		{
			name: "repo-and-skip-exist",
			args: []string{"-repo=/tmp/ft-repo", "-skip-exist"},
			check: func(t *testing.T, cfg config) {
				if cfg.repo != "/tmp/ft-repo" || !cfg.skipExist {
					t.Errorf("cfg = %+v", cfg)
				}
			},
		},
		{
			name: "shared-cache-with-spill",
			args: []string{"-shared-cache=512", "-cache-spill=/tmp/ft-spill"},
			check: func(t *testing.T, cfg config) {
				if cfg.sharedCache != 512 || cfg.cacheSpill != "/tmp/ft-spill" {
					t.Errorf("cfg = %+v", cfg)
				}
			},
		},
		{
			name: "coordinator-with-journal",
			args: []string{"-mode=coordinator", "-fleet-journal=/tmp/ft-journal"},
			check: func(t *testing.T, cfg config) {
				if cfg.fleetJournal != "/tmp/ft-journal" {
					t.Errorf("fleetJournal = %q", cfg.fleetJournal)
				}
			},
		},
		{name: "journal-in-local-mode", args: []string{"-fleet-journal=/tmp/x"}, wantErr: "-fleet-journal requires -mode=coordinator"},
		{name: "journal-in-worker-mode", args: []string{"-mode=worker", "-coordinator=http://x", "-fleet-journal=/tmp/x"}, wantErr: "-fleet-journal requires -mode=coordinator"},
		{name: "skip-exist-without-repo", args: []string{"-skip-exist"}, wantErr: "-skip-exist requires -repo"},
		{name: "spill-without-shared-cache", args: []string{"-cache-spill=/tmp/x"}, wantErr: "-cache-spill requires -shared-cache"},
		{name: "negative-shared-cache", args: []string{"-shared-cache=-1"}, wantErr: "-shared-cache must be >= 0"},
		{name: "unknown-mode", args: []string{"-mode=cluster"}, wantErr: "-mode must be"},
		{name: "zero-global-workers", args: []string{"-global-workers=0"}, wantErr: "-global-workers must be >= 1"},
		{name: "negative-global-workers", args: []string{"-global-workers=-4"}, wantErr: "-global-workers must be >= 1"},
		{name: "zero-drain-timeout", args: []string{"-drain-timeout=0s"}, wantErr: "-drain-timeout must be positive"},
		{name: "heartbeat-equals-ttl", args: []string{"-mode=coordinator", "-lease-ttl=5s", "-heartbeat=5s"}, wantErr: "must be below -lease-ttl"},
		{name: "heartbeat-above-ttl", args: []string{"-mode=coordinator", "-lease-ttl=5s", "-heartbeat=6s"}, wantErr: "must be below -lease-ttl"},
		{name: "negative-heartbeat", args: []string{"-mode=coordinator", "-heartbeat=-1s"}, wantErr: "-heartbeat must be >= 0"},
		{name: "zero-lease-ttl", args: []string{"-mode=coordinator", "-lease-ttl=0s"}, wantErr: "-lease-ttl must be positive"},
		{name: "zero-lease-losses", args: []string{"-mode=coordinator", "-max-lease-losses=0"}, wantErr: "-max-lease-losses must be >= 1"},
		{name: "worker-without-coordinator", args: []string{"-mode=worker"}, wantErr: "requires -coordinator"},
		{name: "worker-zero-concurrency", args: []string{"-mode=worker", "-coordinator=http://x", "-concurrency=0"}, wantErr: "-concurrency must be >= 1"},
		{name: "worker-zero-poll", args: []string{"-mode=worker", "-coordinator=http://x", "-poll=0s"}, wantErr: "-poll must be positive"},
		{name: "worker-negative-fault-rate", args: []string{"-mode=worker", "-coordinator=http://x", "-worker-fault-rate=-1"}, wantErr: "-worker-fault-rate must be >= 0"},
		{
			name: "default-technique-bo",
			args: []string{"-technique=bo"},
			check: func(t *testing.T, cfg config) {
				if cfg.technique != "bo" {
					t.Errorf("technique = %q", cfg.technique)
				}
			},
		},
		{
			name: "warm-start-with-repo-and-ga",
			args: []string{"-technique=ga", "-warm-start", "-repo=/tmp/ft-repo"},
			check: func(t *testing.T, cfg config) {
				if !cfg.warmStart {
					t.Errorf("warmStart = false")
				}
			},
		},
		{
			name: "worker-cache-spill-without-shared-cache",
			args: []string{"-mode=worker", "-coordinator=http://x", "-cache-spill=/tmp/ft-spill"},
			check: func(t *testing.T, cfg config) {
				// In worker mode the evaluator always has a compile cache,
				// so spill does not require -shared-cache (that pairing is
				// a server-mode rule).
				if cfg.cacheSpill != "/tmp/ft-spill" {
					t.Errorf("cacheSpill = %q", cfg.cacheSpill)
				}
			},
		},
		{
			name: "worker-shared-cache-sets-size",
			args: []string{"-mode=worker", "-coordinator=http://x", "-shared-cache=64", "-cache-spill=/tmp/s"},
			check: func(t *testing.T, cfg config) {
				if cfg.sharedCache != 64 {
					t.Errorf("sharedCache = %d", cfg.sharedCache)
				}
			},
		},
		{name: "unknown-technique", args: []string{"-technique=tabu"}, wantErr: "-technique must be cfr, bo or ga"},
		{name: "warm-start-without-repo", args: []string{"-technique=bo", "-warm-start"}, wantErr: "-warm-start requires -repo"},
		{name: "warm-start-with-cfr", args: []string{"-warm-start", "-repo=/tmp/r"}, wantErr: "-warm-start requires -technique bo or ga"},
		{name: "worker-technique", args: []string{"-mode=worker", "-coordinator=http://x", "-technique=bo"}, wantErr: "-technique is a job default, not a worker setting"},
		{name: "worker-warm-start", args: []string{"-mode=worker", "-coordinator=http://x", "-warm-start"}, wantErr: "-warm-start is a job default, not a worker setting"},
		{name: "worker-negative-shared-cache", args: []string{"-mode=worker", "-coordinator=http://x", "-shared-cache=-2"}, wantErr: "-shared-cache must be >= 0"},
		{name: "stray-args", args: []string{"serve"}, wantErr: "unexpected arguments"},
		{name: "unknown-flag", args: []string{"-bogus"}, wantErr: "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parseFlags(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if tc.check != nil {
					tc.check(t, cfg)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got config %+v", tc.wantErr, cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
