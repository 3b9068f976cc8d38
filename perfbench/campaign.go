package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"funcytuner"
	"funcytuner/internal/caliper"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/exec"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	fmetrics "funcytuner/internal/metrics"
	"funcytuner/internal/outline"
	"funcytuner/internal/search"
	"funcytuner/internal/search/bo"
	"funcytuner/internal/search/ga"
	"funcytuner/internal/stats"
	"funcytuner/internal/xrand"
)

// Fixed tuning configuration of every workload.
const (
	samples = 1000
	topX    = 50
	machine = "broadwell"
)

// corpus holds the programs, the machine and their tuning inputs.
type corpus struct {
	m      *funcytuner.Machine
	progs  map[string]*funcytuner.Program
	inputs map[string]funcytuner.Input
}

func loadCorpus() (*corpus, error) {
	m, err := funcytuner.MachineByName(machine)
	if err != nil {
		return nil, err
	}
	c := &corpus{m: m, progs: map[string]*funcytuner.Program{}, inputs: map[string]funcytuner.Input{}}
	for _, name := range funcytuner.Benchmarks() {
		p, err := funcytuner.Benchmark(name)
		if err != nil {
			return nil, err
		}
		c.progs[name] = p
		c.inputs[name] = funcytuner.TuningInput(name, m)
	}
	return c, nil
}

// tuner returns a fresh facade tuner for s with session workers = nproc.
func (c *corpus) tuner(s spec, nproc int, opts funcytuner.Options) *funcytuner.Tuner {
	opts.Machine = c.m
	opts.Samples = samples
	opts.TopX = topX
	opts.Technique = s.Technique
	opts.Seed = s.Seed
	opts.Workers = nproc
	return funcytuner.NewTuner(opts)
}

// campaignBench is the campaign workload: local cold Tune runs, one at a
// time, each on a fresh Tuner with no checkpoint, trace or repository.
type campaignBench struct {
	e   *env
	c   *corpus
	gen *campaignGen
	chk *checker
}

func setupCampaign(e *env) (instance, error) {
	c, err := loadCorpus()
	if err != nil {
		return nil, err
	}
	// Warm up: one campaign per program, so the first timed campaign does
	// not pay for faulting in code and growing the heap.
	for _, name := range funcytuner.Benchmarks() {
		s := spec{Program: name, Technique: "cfr", Seed: "warmup"}
		if _, err := c.tuner(s, e.nproc, funcytuner.Options{}).Tune(c.progs[name], c.inputs[name]); err != nil {
			return nil, err
		}
	}
	return &campaignBench{e: e, c: c, gen: newCampaignGen(e.seed), chk: newChecker()}, nil
}

func (b *campaignBench) close() {}

// campaignOutcome is what one campaign op yields for checking and metrics.
type campaignOutcome struct {
	res      *core.Result
	runs     int64
	compiles int64
	// col and part are kept by the traced path for the layer probe.
	col  *core.Collection
	part ir.Partition
}

// digest fingerprints a campaign's deterministic outcome: the search
// result (chosen CVs, times, convergence trace) and the simulated cost.
// The untraced facade path and the traced layered path hash the same
// values, so a spec repeated across the two passes is still checked.
func (o campaignOutcome) digest() uint64 {
	var h xrand.Hasher
	r := o.res
	h.Add(xrand.HashString(r.Algorithm))
	h.Add(uint64(r.Evaluations))
	for _, cv := range r.ModuleCVs {
		h.Add(cv.Key())
	}
	for _, f := range append([]float64{r.BestMeasured, r.TrueTime, r.Baseline, r.Speedup}, r.Trace...) {
		h.Add(math.Float64bits(f))
	}
	h.Add(uint64(o.runs))
	h.Add(uint64(o.compiles))
	return h.Sum()
}

func (b *campaignBench) measure(d time.Duration, tr *tracer) (*pass, error) {
	p := &pass{e2e: map[string]float64{}, layer: map[string]float64{}}
	rt := startRuntimeProbe()
	var lat, speedups []float64
	var runs int64
	var probing time.Duration
	lp := newLayerProbe(tr)
	start := time.Now()
	for time.Since(start) < d {
		s := b.gen.next()
		p.attempted++
		t0 := time.Now()
		var out campaignOutcome
		var err error
		if tr == nil {
			out, err = b.tune(s)
		} else {
			out, err = lp.campaign(b.c, s, b.e.nproc)
		}
		elapsed := time.Since(t0)
		if err != nil {
			fmt.Printf("campaign %s: %v\n", s.key(), err)
			p.failed++
			continue
		}
		if out.runs != 2*samples || out.res.Evaluations != samples || !b.chk.check(s, out.digest()) {
			fmt.Printf("campaign %s: wrong outcome (runs %d, evaluations %d)\n", s.key(), out.runs, out.res.Evaluations)
			p.failed++
			continue
		}
		lat = append(lat, ms(elapsed))
		speedups = append(speedups, out.res.Speedup)
		runs += out.runs
		if tr != nil {
			t0 := time.Now()
			if err := lp.probe(b.c, s, out); err != nil {
				return nil, err
			}
			probing += time.Since(t0)
		}
	}
	p.wall = time.Since(start)
	// Rates leave out the traced pass's probes, which are not campaign
	// work.
	busy := (p.wall - probing).Seconds()
	p.latencies = map[string][]float64{"campaign_ms": lat}
	p.e2e["campaign_ms.p50"] = percentile(lat, 50)
	p.e2e["campaign_ms.p90"] = percentile(lat, 90)
	p.e2e["requests_per_s"] = float64(len(lat)) / busy
	p.e2e["evals_per_s"] = float64(runs) / busy
	p.e2e["speedup_geomean"] = geomean(speedups)
	rt.finish(p, len(lat))
	if tr != nil {
		lp.report(p.layer)
	}
	return p, nil
}

// tune runs s through the facade, as `funcytuner -technique X` does.
func (b *campaignBench) tune(s spec) (campaignOutcome, error) {
	rep, err := b.c.tuner(s, b.e.nproc, funcytuner.Options{}).Tune(b.c.progs[s.Program], b.c.inputs[s.Program])
	if err != nil {
		return campaignOutcome{}, err
	}
	return campaignOutcome{res: rep.Best, runs: rep.Runs, compiles: rep.Compiles}, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// layerProbe drives the traced campaign through the modules' public
// functions, one span per call, and keeps the per-technique search
// costs.
type layerProbe struct {
	tr          *tracer
	hits        compiler.CacheStats
	compileKB   []float64
	suggestMS   map[string][]float64 // per technique, per campaign
	allocSample [1]metrics.Sample
}

func newLayerProbe(tr *tracer) *layerProbe {
	lp := &layerProbe{tr: tr, suggestMS: map[string][]float64{}}
	lp.allocSample[0].Name = "/gc/heap/allocs:bytes"
	return lp
}

// campaign runs one Tune the way the facade does — outline, session,
// collection, search — with a span around each call.
func (lp *layerProbe) campaign(c *corpus, s spec, nproc int) (campaignOutcome, error) {
	tr := lp.tr
	prog, in := c.progs[s.Program], c.inputs[s.Program]
	root := tr.begin(-1, "", "campaign")
	defer tr.end(root)
	tc := compiler.NewToolchain(flagspec.ICC())
	tc.AttachCache(compiler.NewCompileCache(0))
	sp := tr.begin(root, layerOutline, "outline.auto_outline")
	out, err := outline.AutoOutline(tc, prog, c.m, in, outline.HotThreshold, 1, nil)
	tr.end(sp)
	if err != nil {
		return campaignOutcome{}, err
	}
	sp = tr.begin(root, layerCore, "core.new_session")
	sess, err := core.NewSession(tc, prog, out.Partition, c.m, in, core.Config{
		Samples: samples, TopX: topX, Technique: s.Technique, Seed: s.Seed, Workers: nproc, Noisy: true,
	})
	if err == nil {
		sess.AttachMetrics(fmetrics.NewRegistry())
	}
	tr.end(sp)
	if err != nil {
		return campaignOutcome{}, err
	}
	ctx := context.Background()
	sp = tr.begin(root, layerCore, "core.collect")
	col, err := sess.Collect(ctx)
	tr.end(sp)
	if err != nil {
		return campaignOutcome{}, err
	}
	sp = tr.begin(root, layerCore, "core.search")
	res, err := sess.Search(ctx, col)
	tr.end(sp)
	if err != nil {
		return campaignOutcome{}, err
	}
	cs := sess.CacheStats()
	lp.hits.ObjectHits += cs.ObjectHits
	lp.hits.ObjectMisses += cs.ObjectMisses + cs.ObjectCoalesced
	lp.hits.LinkHits += cs.LinkHits
	lp.hits.LinkMisses += cs.LinkMisses + cs.LinkCoalesced
	return campaignOutcome{res: res, runs: sess.Cost.Runs(), compiles: sess.Cost.Compiles(), col: col, part: out.Partition}, nil
}

// probe repeats, serially and on a fresh compile cache, the layer calls
// the session made inside Collect and Search, one span per call: the
// collection's K uniform compiles and instrumented runs, then the search
// technique's full Suggest/compile/run/Observe loop over the pools the
// collection pruned to. The session's own calls happen inside core and
// cannot be timed from outside it; the probe's calls are the same
// functions on the same inputs.
func (lp *layerProbe) probe(c *corpus, s spec, out campaignOutcome) error {
	tr := lp.tr
	prog, in := c.progs[s.Program], c.inputs[s.Program]
	root := tr.begin(-1, "", "probe")
	defer tr.end(root)
	tc := compiler.NewToolchain(flagspec.ICC())
	tc.AttachCache(compiler.NewCompileCache(0))
	sp := tr.begin(root, layerCompiler, "compiler.prepare")
	prep, err := tc.Prepare(prog, out.part, c.m)
	tr.end(sp)
	if err != nil {
		return err
	}
	rp := exec.NewRunProfile(prog, c.m, in)
	for _, cv := range out.col.CVs {
		a0 := lp.allocBytes()
		sp = tr.begin(root, layerCompiler, "compiler.compile_uniform")
		exe, err := prep.CompileUniform(cv)
		tr.end(sp)
		lp.compileKB = append(lp.compileKB, (lp.allocBytes()-a0)/1024)
		if err != nil {
			return err
		}
		sp = tr.begin(root, layerCaliper, "caliper.collect")
		caliper.CollectWith(rp, exe, 1, nil)
		tr.end(sp)
	}

	pools := make([][]flagspec.CV, len(out.col.Times))
	for mi, times := range out.col.Times {
		for _, k := range stats.TopKSmallest(times, topX) {
			pools[mi] = append(pools[mi], out.col.CVs[k])
		}
	}
	tech, err := newTechnique(s, prog.Name, c.m.Name, pools)
	if err != nil {
		return err
	}
	var suggest time.Duration
	for k := 0; k < samples; {
		t0 := time.Now()
		batch := tech.Suggest(samples - k)
		d := time.Since(t0)
		tr.record(root, layerSearch, "search.suggest."+s.Technique, t0, d)
		suggest += d
		if len(batch) == 0 {
			break
		}
		for _, a := range batch {
			a0 := lp.allocBytes()
			sp = tr.begin(root, layerCompiler, "compiler.compile_assembly")
			exe, err := prep.Compile(a)
			tr.end(sp)
			lp.compileKB = append(lp.compileKB, (lp.allocBytes()-a0)/1024)
			if err != nil {
				return err
			}
			sp = tr.begin(root, layerExec, "exec.run")
			r := rp.Run(exe, exec.Options{})
			tr.end(sp)
			sp = tr.begin(root, layerSearch, "search.observe."+s.Technique)
			tech.Observe(k, a, r.Total)
			tr.end(sp)
			k++
		}
	}
	lp.suggestMS[s.Technique] = append(lp.suggestMS[s.Technique], ms(suggest))
	return nil
}

// newTechnique builds the search technique the session would, with the
// session's own technique stream.
func newTechnique(s spec, prog, machine string, pools [][]flagspec.CV) (search.Technique, error) {
	rng := xrand.NewFromString("core/" + s.Seed + "/" + prog + "/" + machine)
	cfg := search.Config{Pools: pools, Budget: samples}
	switch s.Technique {
	case "bo":
		cfg.Rng = rng.Split("search/bo", 0)
		return bo.New(cfg)
	case "ga":
		cfg.Rng = rng.Split("search/ga", 0)
		return ga.New(cfg)
	default:
		cfg.Rng = rng.Split("cfr-assign", 0)
		return search.NewCFR(cfg)
	}
}

func (lp *layerProbe) allocBytes() float64 {
	metrics.Read(lp.allocSample[:])
	return float64(lp.allocSample[0].Value.Uint64())
}

// report fills the campaign's per-layer metrics from the recorded spans.
func (lp *layerProbe) report(m map[string]float64) {
	tr := lp.tr
	us := func(name string) float64 { return mean(tr.durations(name)) * 1e6 }
	m["outline.auto_outline_ms"] = us("outline.auto_outline") / 1e3
	m["compiler.prepare_us"] = us("compiler.prepare")
	m["compiler.compile_uniform_us"] = us("compiler.compile_uniform")
	m["compiler.compile_assembly_us"] = us("compiler.compile_assembly")
	m["compiler.object_hit_ratio"] = ratio(lp.hits.ObjectHits, lp.hits.ObjectHits+lp.hits.ObjectMisses)
	m["compiler.link_hit_ratio"] = ratio(lp.hits.LinkHits, lp.hits.LinkHits+lp.hits.LinkMisses)
	m["compiler.alloc_kb_per_compile"] = mean(lp.compileKB)
	m["exec.run_us"] = us("exec.run")
	m["caliper.collect_us"] = us("caliper.collect")
	for _, t := range funcytuner.Techniques() {
		m["search.suggest_us."+t] = us("search.suggest." + t)
		m["search.observe_us."+t] = us("search.observe." + t)
		m["search.suggest_ms_per_campaign."+t] = mean(lp.suggestMS[t])
	}
	m["core.collect_ms"] = us("core.collect") / 1e3
	m["core.search_ms"] = us("core.search") / 1e3
	m["core.unaccounted_share"] = lp.coreUnaccounted()
}

// coreUnaccounted estimates the share of the core phases' wall time that
// the layer calls made under them do not explain: the probe's serial
// compile, caliper and run time, divided by the session's worker count
// (the session spreads those calls over its workers), plus the search
// technique's Suggest/Observe time (which the session makes on one
// goroutine).
func (lp *layerProbe) coreUnaccounted() float64 {
	tr := lp.tr
	sum := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			for _, d := range tr.durations(n) {
				s += d
			}
		}
		return s
	}
	phases := sum("core.collect", "core.search")
	if phases == 0 {
		return 0
	}
	parallel := sum("compiler.compile_uniform", "caliper.collect", "compiler.compile_assembly", "exec.run")
	var serial float64
	for _, t := range funcytuner.Techniques() {
		serial += sum("search.suggest."+t, "search.observe."+t)
	}
	return 1 - (parallel/float64(runtime.GOMAXPROCS(0))+serial)/phases
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runtimeProbe measures the Go runtime's share of a pass: GC CPU time and
// heap allocation.
type runtimeProbe struct {
	s [3]metrics.Sample
}

func startRuntimeProbe() *runtimeProbe {
	rp := &runtimeProbe{}
	rp.s[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	rp.s[1].Name = "/cpu/classes/total:cpu-seconds"
	rp.s[2].Name = "/gc/heap/allocs:bytes"
	metrics.Read(rp.s[:])
	return rp
}

// finish records the pass's GC CPU fraction, allocation per operation and
// the live heap after a forced GC.
func (rp *runtimeProbe) finish(p *pass, ops int) {
	now := rp.s
	metrics.Read(now[:])
	gc := now[0].Value.Float64() - rp.s[0].Value.Float64()
	total := now[1].Value.Float64() - rp.s[1].Value.Float64()
	alloc := float64(now[2].Value.Uint64() - rp.s[2].Value.Uint64())
	if total > 0 {
		p.layer["runtime.gc_cpu_fraction"] = gc / total
	}
	if ops > 0 {
		p.layer["runtime.alloc_mb_per_campaign"] = alloc / 1e6 / float64(ops)
	}
	p.e2e["heap_mb"] = float64(liveHeap()) / 1e6
}
