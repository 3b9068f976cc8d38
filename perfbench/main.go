// Command perfbench is the repository benchmark. It drives the tuner only
// through its public entry points — the funcytuner facade, the funcytunerd
// job service over loopback HTTP, and the fleet coordinator and workers —
// and measures three workloads:
//
//	campaign  a closed loop of local cold Tune runs, one at a time
//	daemon    two HTTP clients against a job service with a results repository
//	fleet     Tune runs evaluated by two in-process fleet workers
//
// Each run sets the workload up several times (reporting the median
// set-up time), measures a closed loop for --seconds, checks every output,
// and prints one JSON object as its last line of standard output. With
// --trace 1 it measures half the time untraced and half traced, and
// reports per-layer metrics from spans the benchmark records around its
// own calls into each module; see METRICS.md.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupRounds is how many times each run sets its workload up; setup_s is
// the median.
const setupRounds = 3

// env is what every workload's set-up receives.
type env struct {
	seed  int64
	nproc int
	work  string // this set-up's scratch directory inside the checkout
}

// instance is a set-up workload, ready to measure.
type instance interface {
	// measure runs the workload's closed loop for d. tr is nil for an
	// untraced pass.
	measure(d time.Duration, tr *tracer) (*pass, error)
	// close stops everything the instance started and waits for it.
	close()
}

// pass is the outcome of one measured window.
type pass struct {
	attempted, failed int64
	wall              time.Duration
	e2e               map[string]float64 // end-to-end metrics except setup_s
	layer             map[string]float64 // per-layer metrics (traced passes)
	// latencies holds the per-operation samples behind the latency
	// metrics and the printed-only fresh-job latency, keyed by family
	// ("campaign_ms", "job_ms").
	latencies map[string][]float64
}

type workload struct {
	name  string
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{"campaign", setupCampaign},
	{"daemon", setupDaemon},
	{"fleet", setupFleet},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newMetric reports v under name. A value that could not be measured —
// NaN when every operation failed — reads 0, so the result still encodes
// and its failed count tells what happened.
func newMetric(name string, v float64) metricValue {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return metricValue{v, units[name]}
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign, daemon or fleet")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
	root := flag.String("root", ".", "repository checkout to work in")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, root string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q (want campaign, daemon or fleet)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fmt.Println("machine:", machineLine(root))

	var inst instance
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if inst != nil {
			inst.close()
		}
		e := &env{seed: seed, nproc: nproc, work: filepath.Join(work, fmt.Sprintf("setup%d", i))}
		if err := os.MkdirAll(e.work, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		inst, err = wl.setup(e)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()

	window := time.Duration(seconds * float64(time.Second))
	res := result{Metrics: map[string]metricValue{}}
	var p *pass
	if !traced {
		if p, err = inst.measure(window, nil); err != nil {
			return err
		}
		for k, v := range p.e2e {
			res.Metrics[k] = newMetric(k, v)
		}
		res.Metrics["setup_s"] = newMetric("setup_s", percentile(setups, 50))
	} else {
		base, err := inst.measure(window/2, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		if p, err = inst.measure(window/2, tr); err != nil {
			return err
		}
		p.attempted += base.attempted
		p.failed += base.failed
		// The runtime's share is measured on the untraced pass, whose
		// allocations and GC are the workload's own.
		for k, v := range base.layer {
			if strings.HasPrefix(k, "runtime.") {
				p.layer[k] = v
			}
		}
		self, unaccounted := tr.selfTimes(p.wall)
		printShares(name, p.wall, self, unaccounted)
		printOverhead(base, p)
		for _, l := range layers {
			p.layer["self."+l+"_share"] = self[l] / p.wall.Seconds()
		}
		p.layer["self.unaccounted_share"] = unaccounted / p.wall.Seconds()
		for _, m := range layerMetrics {
			res.Metrics[m.name] = newMetric(m.name, p.layer[m.name])
		}
	}
	res.Attempted, res.Failed = p.attempted, p.failed
	res.Correct = p.failed == 0 && p.attempted > 0
	if res.Attempted < 1 {
		return errors.New("no operation completed in the measured window")
	}
	printSummary(name, p, res)
	printLatencies(p)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printOverhead prints the traced pass's end-to-end numbers against the
// untraced pass's: the cost of recording spans plus the traced-only
// probes that run inside the traced window.
func printOverhead(base, traced *pass) {
	fmt.Println("tracing overhead (traced minus untraced):")
	for _, m := range e2eMetrics {
		b, ok := base.e2e[m.name]
		if !ok {
			continue
		}
		t := traced.e2e[m.name]
		fmt.Printf("  %-20s %12.4f -> %12.4f %-6s (%+.1f%%)\n", m.name, b, t, m.unit, 100*(t-b)/b)
	}
}

// printSummary prints the human-readable result lines that precede the
// JSON object.
func printSummary(name string, p *pass, res result) {
	frac := float64(p.failed) / float64(p.attempted)
	fmt.Printf("%s: attempted %d, failed %d, failed_frac %.4f\n", name, p.attempted, p.failed, frac)
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Metrics[k]
		fmt.Printf("  %-36s %14.4f %s\n", k, m.Value, m.Unit)
	}
}

// printLatencies prints each latency distribution's sample count and
// quartiles, so a percentile can be read with the samples behind it.
func printLatencies(p *pass) {
	keys := make([]string, 0, len(p.latencies))
	for k := range p.latencies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		xs := p.latencies[k]
		q1, q2, q3 := quartiles(xs)
		fmt.Printf("  %s: n=%d q1=%.3f median=%.3f q3=%.3f p90=%.3f\n", k, len(xs), q1, q2, q3, percentile(xs, 90))
	}
}

// machineLine records the machine and code a result was measured on.
func machineLine(root string) string {
	m := map[string]any{
		"cpu":        cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(root),
	}
	b, _ := json.Marshal(m) // a map of strings and ints always encodes
	return string(b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the code under test: the VCS revision stamped into the
// binary when the checkout is a git work tree, otherwise a digest of the
// checkout's Go sources (the benchmark may run from a plain export).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-sha256:%x", h.Sum(nil)[:8])
}
