// Package bo is an analytical-surrogate Bayesian optimizer over the
// per-module CV space, after the loop-space BO line of work (Wu et al.,
// arXiv:2010.08040): instead of a Gaussian-process library it fits a
// closed-form additive surrogate — a regularized per-(module, CV) effect
// model — and ranks candidates by the exact expected-improvement
// integral, so it needs no external dependencies and stays bit-
// deterministic per seed.
//
// Model. Each observation is an assembly's measured end-to-end time.
// For module m and candidate CV c, the surrogate keeps the count n(m,c)
// and mean t̄(m,c) of observations whose assembly used c at m. The
// predicted mean of an assembly is the global mean plus the sum of
// shrunken per-module effects,
//
//	μ(a) = ḡ + Σ_m (t̄(m,a_m) − ḡ) · n/(n+n₀),
//
// and the predictive deviation treats module effects as independent,
//
//	σ²(a) = Σ_m s² / (1 + n(m,a_m)),
//
// with s the global sample deviation — unexplored choices keep high
// variance, well-sampled ones shrink toward their mean. Expected
// improvement over the incumbent best f* is the analytic
// EI = (f*−μ)Φ(z) + σφ(z), z = (f*−μ)/σ, via math.Erf.
//
// Rounds. The initial design is the warm-start seeds followed by random
// pool assemblies; each later round scores a deterministic candidate set
// (random assemblies, single-module mutations of the top incumbents, and
// the incumbents themselves — re-proposing a strong incumbent draws a
// fresh noise sample, which is how the optimizer chases the noisy
// minimum CFR finds by brute force) and returns the top-EI batch.
//
// Fitting. Observe only records. Suggest brings the surrogate up to
// date by folding the observations it has not seen yet, in evaluation-
// index order, into running sums, so a round costs O(batch·modules)
// plus candidate scoring instead of a refit over every observation. The
// sums take the same += sequence a from-scratch fit would, so the model
// is bit-identical to one. Two events rebuild it from scratch instead:
// an Observe below the folded prefix (a late or repeated report), and a
// new worst finite time once +Inf observations are folded, because
// those are clamped to twice the worst finite time. The technique is
// therefore insensitive to the order results are reported in — the
// engine's worker scheduling cannot leak into its decisions.
package bo

import (
	"math"
	"sort"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
)

// Tunables. Fixed rather than configurable: they are part of the
// technique's deterministic identity (changing them changes results).
const (
	// batchSize is the per-round suggestion count after the initial
	// design — large enough to keep the engine's workers busy, small
	// enough to refit frequently.
	batchSize = 16
	// candidates is the number of scored proposals per round.
	candidates = 96
	// incumbents is how many of the best-seen assemblies are re-proposed
	// and mutated each round.
	incumbents = 3
	// shrink is n₀, the effect-shrinkage prior weight.
	shrink = 1.0
	// minDesign floors the initial random design size.
	minDesign = 16
)

type observation struct {
	assembly []flagspec.CV
	t        float64
}

// Optimizer is the BO technique. See the package comment for the model.
type Optimizer struct {
	cfg    search.Config
	issued int
	obs    []observation // indexed by global evaluation index
	model  surrogate     // fitted over obs[:model.folded]
	dirty  bool          // an Observe landed below model.folded
}

// New builds the optimizer.
func New(cfg search.Config) (search.Technique, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := &Optimizer{cfg: cfg, obs: make([]observation, 0, cfg.Budget)}
	o.model.cells = make([]map[uint64]cell, len(cfg.Pools))
	for mi := range o.model.cells {
		o.model.cells[mi] = make(map[uint64]cell)
	}
	o.model.reset()
	return o, nil
}

// Name implements search.Technique.
func (o *Optimizer) Name() string { return "BO" }

// Phase implements search.Technique.
func (o *Optimizer) Phase() string { return "bo" }

// Observe implements search.Technique: record only — all decisions
// happen in Suggest. An index the surrogate has already folded marks it
// for a rebuild.
func (o *Optimizer) Observe(k int, assembly []flagspec.CV, t float64) {
	for len(o.obs) <= k {
		o.obs = append(o.obs, observation{})
	}
	o.obs[k] = observation{assembly: assembly, t: t}
	if k < o.model.folded {
		o.dirty = true
	}
}

// Suggest implements search.Technique.
func (o *Optimizer) Suggest(n int) [][]flagspec.CV {
	if rem := o.cfg.Budget - o.issued; n > rem {
		n = rem
	}
	if n <= 0 {
		return nil
	}
	design := o.designSize()
	var batch [][]flagspec.CV
	switch {
	case o.issued < design:
		batch = o.initialDesign(min(n, design-o.issued))
	default:
		batch = o.acquire(min(n, batchSize))
	}
	o.issued += len(batch)
	return batch
}

// designSize is the initial-design length: every warm seed plus a
// random space-filling block.
func (o *Optimizer) designSize() int {
	d := len(o.cfg.Seeds) + max(minDesign, 2*len(o.cfg.Pools))
	if d > o.cfg.Budget {
		d = o.cfg.Budget
	}
	return d
}

// initialDesign emits the next n design points: warm seeds first, then
// random pool assemblies.
func (o *Optimizer) initialDesign(n int) [][]flagspec.CV {
	out := make([][]flagspec.CV, 0, n)
	for i := 0; i < n; i++ {
		if idx := o.issued + i; idx < len(o.cfg.Seeds) {
			out = append(out, cloneAssembly(o.cfg.Seeds[idx]))
		} else {
			out = append(out, o.randomAssembly())
		}
	}
	return out
}

func (o *Optimizer) randomAssembly() []flagspec.CV {
	a := make([]flagspec.CV, len(o.cfg.Pools))
	for mi := range a {
		pool := o.cfg.Pools[mi]
		a[mi] = pool[o.cfg.Rng.Intn(len(pool))]
	}
	return a
}

func cloneAssembly(a []flagspec.CV) []flagspec.CV {
	return append([]flagspec.CV(nil), a...)
}

// cell is one (module, CV) effect estimate.
type cell struct {
	n   float64
	sum float64
}

// surrogate is the fitted additive model and the running sums behind it.
type surrogate struct {
	cells  []map[uint64]cell // per module, keyed by CV.Key
	sum    float64           // Σ t over folded observations
	sumsq  float64           // Σ t²
	count  float64           // folded observations
	global float64           // ḡ
	dev    float64           // s
	fstar  float64           // incumbent best observation
	worst  float64           // worst finite observation
	infs   int               // folded +Inf observations, clamped to 2·worst
	tops   []int             // best `incumbents` observation indices, best first
	folded int               // obs[:folded] are in the sums
}

// reset empties the surrogate, keeping its cell maps for reuse.
func (s *surrogate) reset() {
	for _, m := range s.cells {
		clear(m)
	}
	*s = surrogate{cells: s.cells, tops: s.tops[:0], worst: math.Inf(-1), fstar: math.Inf(1)}
}

// fit folds the observations recorded since the last call into the
// surrogate, in index order, and returns it — or nil while nothing
// finite has been observed. +Inf observations (crashed or abandoned
// evaluations) are clamped to twice the worst finite time, a multiset
// statistic, so the clamp is independent of reporting order. When the
// worst finite time rises under already-folded +Inf observations, or an
// Observe landed below the folded prefix, the surrogate is rebuilt from
// index 0 instead; either way it equals a from-scratch fit bit for bit.
func (o *Optimizer) fit() *surrogate {
	s := &o.model
	if o.dirty {
		s.reset()
		o.dirty = false
	}
	worst, fstar := s.worst, s.fstar
	finite := s.count > 0 // a non-empty model always holds a finite time
	for _, ob := range o.obs[s.folded:] {
		if ob.assembly == nil || math.IsInf(ob.t, 1) {
			continue
		}
		finite = true
		if ob.t > worst {
			worst = ob.t
		}
		if ob.t < fstar {
			fstar = ob.t
		}
	}
	if !finite {
		return nil
	}
	if s.infs > 0 && worst > s.worst {
		s.reset()
	}
	s.worst, s.fstar = worst, fstar
	clamp := 2 * worst
	for k := s.folded; k < len(o.obs); k++ {
		ob := o.obs[k]
		if ob.assembly == nil {
			continue
		}
		t := ob.t
		if math.IsInf(t, 1) {
			t = clamp
			s.infs++
		}
		s.sum += t
		s.sumsq += t * t
		s.count++
		for mi, cv := range ob.assembly {
			c := s.cells[mi][cv.Key()]
			c.n++
			c.sum += t
			s.cells[mi][cv.Key()] = c
		}
		s.rank(o.obs, k)
	}
	s.folded = len(o.obs)
	s.global = s.sum / s.count
	varg := s.sumsq/s.count - s.global*s.global
	if varg < 1e-12*s.global*s.global+1e-300 {
		varg = 1e-12*s.global*s.global + 1e-300
	}
	s.dev = math.Sqrt(varg)
	return s
}

// rank inserts observation k into the top-incumbents list. k is above
// every index already ranked, so placing it after equal times keeps the
// order a stable sort of all observations by time would give.
func (s *surrogate) rank(obs []observation, k int) {
	i := len(s.tops)
	for i > 0 && obs[k].t < obs[s.tops[i-1]].t {
		i--
	}
	if i >= incumbents {
		return
	}
	if len(s.tops) < incumbents {
		s.tops = append(s.tops, 0)
	}
	copy(s.tops[i+1:], s.tops[i:])
	s.tops[i] = k
}

// predict returns the surrogate mean and deviation for an assembly.
func (s *surrogate) predict(a []flagspec.CV) (mu, sigma float64) {
	mu = s.global
	var v float64
	for mi, cv := range a {
		c := s.cells[mi][cv.Key()]
		if c.n > 0 {
			mean := c.sum / c.n
			mu += (mean - s.global) * c.n / (c.n + shrink)
		}
		v += s.dev * s.dev / (1 + c.n)
	}
	return mu, math.Sqrt(v)
}

// ei is the analytic expected improvement of (mu, sigma) over fstar.
func ei(fstar, mu, sigma float64) float64 {
	if sigma <= 0 {
		if mu < fstar {
			return fstar - mu
		}
		return 0
	}
	z := (fstar - mu) / sigma
	cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
	pdf := math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
	return (fstar-mu)*cdf + sigma*pdf
}

// acquire scores a candidate set against the fitted surrogate and
// returns the n proposals with the highest expected improvement (ties
// broken by candidate index, so the choice is deterministic).
func (o *Optimizer) acquire(n int) [][]flagspec.CV {
	s := o.fit()
	if s == nil {
		// Nothing finite observed yet: keep space-filling.
		out := make([][]flagspec.CV, n)
		for i := range out {
			out[i] = o.randomAssembly()
		}
		return out
	}
	tops := s.tops
	cands := make([][]flagspec.CV, 0, candidates)
	// The incumbents themselves: re-evaluating a strong assembly draws a
	// fresh noise sample (noise is keyed by evaluation index), which is
	// the exploitation move that chases the noisy minimum.
	for _, k := range tops {
		cands = append(cands, cloneAssembly(o.obs[k].assembly))
	}
	for len(cands) < candidates {
		switch len(cands) % 3 {
		case 0:
			cands = append(cands, o.randomAssembly())
		case 1:
			// Single-module pool redraw of a top incumbent.
			base := o.obs[tops[len(cands)%len(tops)]].assembly
			a := cloneAssembly(base)
			mi := o.cfg.Rng.Intn(len(a))
			pool := o.cfg.Pools[mi]
			a[mi] = pool[o.cfg.Rng.Intn(len(pool))]
			cands = append(cands, a)
		default:
			// Knob-level mutation of the best incumbent: one flag of one
			// module re-sampled across the whole space.
			a := cloneAssembly(o.obs[tops[0]].assembly)
			mi := o.cfg.Rng.Intn(len(a))
			a[mi] = a[mi].Mutate(o.cfg.Rng, 1)
			cands = append(cands, a)
		}
	}
	type scored struct {
		idx int
		ei  float64
	}
	scores := make([]scored, len(cands))
	for i, a := range cands {
		mu, sigma := s.predict(a)
		scores[i] = scored{idx: i, ei: ei(s.fstar, mu, sigma)}
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].ei != scores[j].ei {
			return scores[i].ei > scores[j].ei
		}
		return scores[i].idx < scores[j].idx
	})
	if n > len(scores) {
		n = len(scores)
	}
	out := make([][]flagspec.CV, n)
	for i := 0; i < n; i++ {
		out[i] = cands[scores[i].idx]
	}
	return out
}
