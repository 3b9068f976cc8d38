package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"funcytuner"
)

// spec is one tuning request the benchmark issues: a corpus program, a
// search technique and the run seed. Everything else is fixed at the
// workload level (K=1000, top-50, broadwell, no injected faults).
type spec struct {
	Program   string
	Technique string
	Seed      string
}

func (s spec) key() string { return s.Program + "|" + s.Technique + "|" + s.Seed }

// repeatEvery makes every repeatEvery-th campaign op a repeat of an
// earlier op, so the determinism check runs inside every run.
const repeatEvery = 8

// campaignGen yields the campaign workload's operations: cycles through
// every (program, technique) pair in a seeded order, each with a fresh
// seed, except that every repeatEvery-th op repeats a seeded earlier one.
type campaignGen struct {
	seed  int64
	rng   *rand.Rand
	pairs []spec
	order []int
	done  []spec
}

func newCampaignGen(seed int64) *campaignGen {
	g := &campaignGen{seed: seed, rng: rand.New(rand.NewPCG(uint64(seed), 0xca))}
	for _, p := range funcytuner.Benchmarks() {
		for _, t := range funcytuner.Techniques() {
			g.pairs = append(g.pairs, spec{Program: p, Technique: t})
		}
	}
	return g
}

func (g *campaignGen) next() spec {
	i := len(g.done)
	var s spec
	if i%repeatEvery == repeatEvery-1 {
		s = g.done[g.rng.IntN(i)]
	} else {
		if len(g.order) == 0 {
			g.order = g.rng.Perm(len(g.pairs))
		}
		s = g.pairs[g.order[0]]
		g.order = g.order[1:]
		s.Seed = fmt.Sprintf("c%d-%d", g.seed, i)
	}
	g.done = append(g.done, s)
	return s
}

// daemonFreshEvery: every daemonFreshEvery-th op of a daemon client is a
// fresh campaign; the rest resubmit a spec completed during set-up.
const daemonFreshEvery = 4

// daemonSetupSpecs is how many specs each daemon client completes during
// set-up; its resubmits draw from these.
const daemonSetupSpecs = 2

// daemonProgram is the program of every daemon job: CloverLeaf, the job
// service's default benchmark. One program keeps the job mix's cost from
// varying with which programs a short run happens to draw.
const daemonProgram = funcytuner.CloverLeaf

// daemonGen yields one daemon client's operations. Clients draw their
// resubmits from disjoint spec sets, so two clients never submit the same
// spec at once (an identical in-flight submission would attach to the
// other client's job instead of being served from the repository). Each
// client's fresh ops fall at a seeded offset within every group of
// daemonFreshEvery ops.
type daemonGen struct {
	seed   int64
	client int
	rng    *rand.Rand
	stored []spec // this client's set-up specs
	offset int
	n      int
}

func newDaemonGen(seed int64, client int) *daemonGen {
	g := &daemonGen{seed: seed, client: client, rng: rand.New(rand.NewPCG(uint64(seed), uint64(0xd0+client)))}
	for k := 0; k < daemonSetupSpecs; k++ {
		g.stored = append(g.stored, spec{Program: daemonProgram, Technique: "cfr", Seed: fmt.Sprintf("d%d-s%d-%d", seed, client, k)})
	}
	g.offset = g.rng.IntN(daemonFreshEvery)
	return g
}

// next returns the next op and whether it is a fresh campaign.
func (g *daemonGen) next() (spec, bool) {
	i := g.n
	g.n++
	if i%daemonFreshEvery != g.offset {
		return g.stored[g.rng.IntN(len(g.stored))], false
	}
	return spec{Program: daemonProgram, Technique: "cfr", Seed: fmt.Sprintf("d%d-c%d-%d", g.seed, g.client, i)}, true
}

// fleetPool is how many distinct fleet specs set-up computes references
// for; a run that outlasts the pool cycles through it again.
const fleetPool = 40

// fleetSpecs returns the fleet workload's seeded op pool: cfr campaigns
// cycling through the programs in a seeded order, each with a fresh seed.
func fleetSpecs(seed int64) []spec {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xf1))
	progs := funcytuner.Benchmarks()
	var out []spec
	for len(out) < fleetPool {
		for _, pi := range rng.Perm(len(progs)) {
			out = append(out, spec{Program: progs[pi], Technique: "cfr", Seed: fmt.Sprintf("f%d-%d", seed, len(out))})
		}
	}
	return out[:fleetPool]
}

// checker compares each operation's fingerprint with the reference for
// its spec: one computed during set-up, or else the first time the spec
// was seen in the run.
type checker struct {
	mu   sync.Mutex
	refs map[string]uint64
}

func newChecker() *checker { return &checker{refs: map[string]uint64{}} }

// check reports whether fp matches the reference for s, recording fp as
// the reference when there is none yet.
func (c *checker) check(s spec, fp uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.refs[s.key()]
	if !ok {
		c.refs[s.key()] = fp
		return true
	}
	return ref == fp
}
