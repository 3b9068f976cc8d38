package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Layer names. A span's layer is the module whose public function the
// benchmark called; spans with no layer (the benchmark's own operation
// roots) count towards the unaccounted remainder.
const (
	layerOutline    = "outline"
	layerCompiler   = "compiler"
	layerExec       = "exec"
	layerCaliper    = "caliper"
	layerSearch     = "search"
	layerCore       = "core"
	layerTrace      = "trace"
	layerResultrepo = "resultrepo"
	layerServer     = "server"
	layerFleet      = "fleet"
)

// layers lists every layer in report order.
var layers = []string{
	layerOutline, layerCompiler, layerExec, layerCaliper, layerSearch,
	layerCore, layerTrace, layerResultrepo, layerServer, layerFleet,
}

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started.
type span struct {
	parent     int // index into tracer.spans, -1 for a root
	layer      string
	name       string
	start, end int64
}

// tracer records spans in memory. A nil *tracer is the untraced mode: every
// method is a no-op that reads no clock, so untraced runs pay nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{parent: parent, layer: layer, name: name, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// record adds an already-timed span (start and d measured by the caller).
func (t *tracer) record(parent int, layer, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{parent: parent, layer: layer, name: name, start: s, end: s + int64(d)})
	t.mu.Unlock()
}

// durations returns the durations, in seconds, of the closed spans named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// selfTimes splits the wall-clock window [0, wall) between layers. At every
// instant the innermost open spans (open spans with no open child) share
// the instant equally, and an instant with no open span, or whose
// innermost spans have no layer, goes to the unaccounted remainder. For
// sequential spans this is the usual self time — a span's duration minus
// its children's — and because every instant is handed out exactly once,
// the layer shares and the remainder always sum to the wall time, also
// when concurrent clients or workers overlap. Spans still open at the end
// of the window are cut there.
func (t *tracer) selfTimes(wall time.Duration) (self map[string]float64, unaccounted float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return selfTimes(spans, int64(wall))
}

func selfTimes(spans []span, wall int64) (map[string]float64, float64) {
	type edge struct {
		at   int64
		open bool
		id   int
	}
	edges := make([]edge, 0, 2*len(spans))
	for id, s := range spans {
		end := s.end
		if end < 0 || end > wall {
			end = wall
		}
		if s.start >= end {
			continue
		}
		edges = append(edges, edge{s.start, true, id}, edge{end, false, id})
	}
	// Closes sort before opens at the same instant, and children close
	// before (and open after) their parents, so the open set stays a
	// forest of complete ancestor chains.
	sort.SliceStable(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.open != b.open {
			return !a.open
		}
		if a.open {
			return a.id < b.id
		}
		return a.id > b.id
	})
	openKids := make([]int, len(spans))
	isOpen := make([]bool, len(spans))
	leaves := map[int]bool{}
	self := map[string]float64{}
	var unaccounted float64
	var last int64
	for _, e := range edges {
		if dt := float64(e.at-last) / 1e9; dt > 0 {
			if len(leaves) == 0 {
				unaccounted += dt
			}
			share := dt / float64(len(leaves))
			for id := range leaves {
				if l := spans[id].layer; l != "" {
					self[l] += share
				} else {
					unaccounted += share
				}
			}
		}
		last = e.at
		p := spans[e.id].parent
		if e.open {
			isOpen[e.id] = true
			leaves[e.id] = true
			if p >= 0 && isOpen[p] {
				openKids[p]++
				delete(leaves, p)
			}
			continue
		}
		isOpen[e.id] = false
		delete(leaves, e.id)
		if p >= 0 && isOpen[p] {
			openKids[p]--
			if openKids[p] == 0 {
				leaves[p] = true
			}
		}
	}
	if tail := float64(wall-last) / 1e9; tail > 0 {
		unaccounted += tail
	}
	return self, unaccounted
}

// printShares writes each layer's self time as a share of the traced wall
// time, then the unaccounted remainder and the check that they sum to one.
func printShares(workload string, wall time.Duration, self map[string]float64, unaccounted float64) {
	sec := wall.Seconds()
	total := unaccounted
	fmt.Printf("self time, %s workload, traced wall %.3f s:\n", workload, sec)
	for _, l := range layers {
		fmt.Printf("  %-11s %7.3f s  %6.2f%%\n", l, self[l], 100*self[l]/sec)
		total += self[l]
	}
	fmt.Printf("  %-11s %7.3f s  %6.2f%%\n", "unaccounted", unaccounted, 100*unaccounted/sec)
	fmt.Printf("  %-11s %7.3f s  %6.2f%%\n", "sum", total, 100*total/sec)
}
