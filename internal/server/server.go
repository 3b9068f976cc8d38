package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"funcytuner"
	"funcytuner/internal/fleet"
	"funcytuner/internal/metrics"
)

// Server is the funcytunerd HTTP API over a Manager.
//
//	POST /jobs                submit a JobSpec, returns Status (202)
//	GET  /jobs                list all jobs
//	GET  /jobs/{id}           one job's Status
//	POST /jobs/{id}/cancel    request cancellation (idempotent)
//	GET  /jobs/{id}/result    Result of a done job (409 otherwise)
//	GET  /jobs/{id}/progress  stream progress lines (tail -f; plain text)
//	GET  /jobs/{id}/trace     structured trace snapshot (JSONL)
//	GET  /metrics             server + gate metrics snapshot (JSON)
//	GET  /healthz             liveness/readiness probe (503 when draining)
//	POST /fleet/*             coordinator claim/heartbeat/report (when a
//	                          fleet coordinator is configured)
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wires the routes over mgr.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.submit)
	s.mux.HandleFunc("GET /jobs", s.list)
	s.mux.HandleFunc("GET /jobs/{id}", s.status)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.cancel)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /jobs/{id}/progress", s.progress)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.trace)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /healthz", s.healthz)
	if mgr.cfg.Fleet != nil {
		s.mux.Handle("/fleet/", mgr.cfg.Fleet.Handler())
	}
	return s
}

// healthView is the /healthz payload: enough for a probe to distinguish
// "alive", "alive but draining" (503) and, on a coordinator, whether the
// fleet is actually holding leases.
type healthView struct {
	Status   string       `json:"status"` // ok | draining
	Draining bool         `json:"draining"`
	Jobs     int          `json:"jobs"`
	Running  int          `json:"running"`
	Fleet    *fleetHealth `json:"fleet,omitempty"`
}

type fleetHealth struct {
	ActiveLeases int `json:"active_leases"`
	QueueDepth   int `json:"queue_depth"`
	Workers      int `json:"workers"`
	Quarantined  int `json:"quarantined"`
	// RecoveredTasks counts in-flight tasks the coordinator re-adopted
	// from its journal at startup; Journal is the journal's health view
	// (absent when the coordinator runs without -fleet-journal).
	RecoveredTasks int                 `json:"recovered_tasks,omitempty"`
	Journal        *fleet.JournalState `json:"journal,omitempty"`
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	jobs, running := s.mgr.Counts()
	v := healthView{Status: "ok", Jobs: jobs, Running: running}
	code := http.StatusOK
	if s.mgr.Draining() {
		v.Status = "draining"
		v.Draining = true
		code = http.StatusServiceUnavailable
	}
	if c := s.mgr.cfg.Fleet; c != nil {
		known, quarantined := c.Workers()
		v.Fleet = &fleetHealth{
			ActiveLeases:   c.ActiveLeases(),
			QueueDepth:     c.QueueDepth(),
			Workers:        known,
			Quarantined:    quarantined,
			RecoveredTasks: c.RecoveredTasks(),
			Journal:        c.JournalState(),
		}
	}
	writeJSON(w, code, v)
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxJobSpecBytes bounds a POST /jobs body. A JobSpec is a handful of
// short fields, so anything near this size is not a job spec.
const maxJobSpecBytes = 64 << 10

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad job spec: %w", err))
		return
	}
	j, err := s.mgr.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

// job resolves the {id} path value, writing a 404 on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown job %q", id))
	}
	return j, ok
}

func (s *Server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, err := j.Result()
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// progress streams the job's progress lines as plain text, following
// the run live (like tail -f) until the job ends or the client leaves.
func (s *Server) progress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	_ = j.progress.Follow(r.Context(), func(line string) error {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		flush()
		return nil
	})
}

func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	_ = j.trace.Snapshot().WriteJSONL(w)
}

// metricsView is the /metrics payload: the server's own registry, the
// shared gate's live occupancy, the results repository's and shared
// compile cache's counters, and the fleet coordinator's counters, each
// when configured.
type metricsView struct {
	Server metrics.Snapshot       `json:"server"`
	Gate   *gateView              `json:"gate,omitempty"`
	Repo   *funcytuner.RepoStats  `json:"repo,omitempty"`
	Cache  *funcytuner.CacheStats `json:"cache,omitempty"`
	Fleet  *metrics.Snapshot      `json:"fleet,omitempty"`
}

type gateView struct {
	Slots     int `json:"slots"`
	Busy      int `json:"busy"`
	HighWater int `json:"high_water"`
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	v := metricsView{Server: s.mgr.Metrics().Snapshot()}
	if g, ok := s.mgr.cfg.Gate.(*Gate); ok && g != nil {
		v.Gate = &gateView{Slots: g.Slots(), Busy: g.Busy(), HighWater: g.HighWater()}
	}
	if r := s.mgr.cfg.Repo; r != nil {
		st := r.Stats()
		v.Repo = &st
	}
	if c := s.mgr.cfg.Cache; c != nil {
		st := c.Stats()
		v.Cache = &st
	}
	if c := s.mgr.cfg.Fleet; c != nil && c.Registry() != nil {
		snap := c.Registry().Snapshot()
		v.Fleet = &snap
	}
	writeJSON(w, http.StatusOK, v)
}
