package bo

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"testing"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
	"funcytuner/internal/xrand"
)

// reference is a from-scratch fit of every recorded observation.
type reference struct {
	cells  []map[uint64]cell
	global float64
	dev    float64
	fstar  float64
	ranked []int // observation indices, best first
}

// refit is the surrogate fit as it was before it became incremental: one
// pass over every observation, clamp computed up front, full stable sort.
// The incremental fit must match it bit for bit.
func refit(o *Optimizer) *reference {
	worst, fstar := math.Inf(-1), math.Inf(1)
	finite := 0
	for _, ob := range o.obs {
		if ob.assembly == nil || math.IsInf(ob.t, 1) {
			continue
		}
		finite++
		if ob.t > worst {
			worst = ob.t
		}
		if ob.t < fstar {
			fstar = ob.t
		}
	}
	if finite == 0 {
		return nil
	}
	clamp := 2 * worst
	s := &reference{
		cells: make([]map[uint64]cell, len(o.cfg.Pools)),
		fstar: fstar,
	}
	for mi := range s.cells {
		s.cells[mi] = make(map[uint64]cell)
	}
	var sum, sumsq float64
	var count float64
	for k, ob := range o.obs {
		if ob.assembly == nil {
			continue
		}
		t := ob.t
		if math.IsInf(t, 1) {
			t = clamp
		}
		sum += t
		sumsq += t * t
		count++
		for mi, cv := range ob.assembly {
			c := s.cells[mi][cv.Key()]
			c.n++
			c.sum += t
			s.cells[mi][cv.Key()] = c
		}
		s.ranked = append(s.ranked, k)
	}
	s.global = sum / count
	varg := sumsq/count - s.global*s.global
	if varg < 1e-12*s.global*s.global+1e-300 {
		varg = 1e-12*s.global*s.global + 1e-300
	}
	s.dev = math.Sqrt(varg)
	sort.SliceStable(s.ranked, func(i, j int) bool {
		return o.obs[s.ranked[i]].t < o.obs[s.ranked[j]].t
	})
	return s
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkFit compares the optimizer's incremental surrogate with refit.
func checkFit(t *testing.T, o *Optimizer, step int) {
	t.Helper()
	got, want := o.fit(), refit(o)
	if (got == nil) != (want == nil) {
		t.Fatalf("step %d: incremental fit nil=%v, refit nil=%v", step, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if !sameBits(got.global, want.global) || !sameBits(got.dev, want.dev) || !sameBits(got.fstar, want.fstar) {
		t.Fatalf("step %d: (global, dev, fstar) = (%v, %v, %v), refit (%v, %v, %v)",
			step, got.global, got.dev, got.fstar, want.global, want.dev, want.fstar)
	}
	tops := want.ranked
	if len(tops) > incumbents {
		tops = tops[:incumbents]
	}
	if !slices.Equal(got.tops, tops) {
		t.Fatalf("step %d: incumbents %v, refit %v", step, got.tops, tops)
	}
	for mi := range want.cells {
		if len(got.cells[mi]) != len(want.cells[mi]) {
			t.Fatalf("step %d: module %d has %d cells, refit %d", step, mi, len(got.cells[mi]), len(want.cells[mi]))
		}
		for key, w := range want.cells[mi] {
			g, ok := got.cells[mi][key]
			if !ok || !sameBits(g.n, w.n) || !sameBits(g.sum, w.sum) {
				t.Fatalf("step %d: module %d cell %#x = %+v (present %v), refit %+v", step, mi, key, g, ok, w)
			}
		}
	}
}

// fuzzTime decodes one byte into an evaluation time: 1 in 8 is a crash
// (+Inf), the rest spread over [10, 42) so the worst finite time keeps
// rising as a sequence goes on.
func fuzzTime(b byte) float64 {
	if b%8 == 0 {
		return math.Inf(1)
	}
	return 10 + float64(b)/8
}

// runOps drives a small optimizer through the Suggest/Observe sequence
// the bytes encode and checks the incremental surrogate against refit
// after every Suggest. Each op is two bytes, (code, arg):
//
//	code%4 == 0: Suggest(arg%24 + 1)
//	code%4 == 1: observe the oldest pending index, time fuzzTime(arg)
//	code%4 == 2: observe pending index arg%len(pending), out of order
//	code%4 == 3: re-observe an already observed index arg%observed with
//	             a new time — below the folded prefix once the surrogate
//	             has folded it
func runOps(t *testing.T, data []byte) {
	space := flagspec.GCC()
	rng := xrand.NewFromString("bo-fuzz/pools")
	tech, err := New(search.Config{
		Pools:  [][]flagspec.CV{space.Sample(rng, 5), space.Sample(rng, 3), space.Sample(rng, 7)},
		Budget: 400,
		Rng:    xrand.NewFromString("bo-fuzz/technique"),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := tech.(*Optimizer)
	var (
		issued   [][]flagspec.CV
		pending  []int
		observed []int
	)
	observe := func(k int, b byte) {
		o.Observe(k, issued[k], fuzzTime(b))
		observed = append(observed, k)
	}
	for step := 0; step+1 < len(data); step += 2 {
		code, arg := data[step], data[step+1]
		switch code % 4 {
		case 0:
			for _, a := range o.Suggest(int(arg%24) + 1) {
				pending = append(pending, len(issued))
				issued = append(issued, a)
			}
			checkFit(t, o, step)
		case 1:
			if len(pending) > 0 {
				observe(pending[0], arg)
				pending = pending[1:]
			}
		case 2:
			if len(pending) > 0 {
				i := int(arg) % len(pending)
				observe(pending[i], arg)
				pending = append(pending[:i], pending[i+1:]...)
			}
		case 3:
			if len(observed) > 0 {
				observe(observed[int(arg)%len(observed)], arg^0x55)
			}
		}
	}
	checkFit(t, o, len(data))
}

// engineOps encodes the engine's pattern — Suggest, then observe the
// whole batch in index order — for the given per-evaluation time bytes.
func engineOps(times []byte) []byte {
	var ops []byte
	for i, b := range times {
		if i%16 == 0 {
			ops = append(ops, 0, 23)
		}
		ops = append(ops, 1, b)
	}
	return append(ops, 0, 23)
}

func FuzzIncrementalFit(f *testing.F) {
	// Clean engine-shaped run: finite times only.
	clean := make([]byte, 160)
	for i := range clean {
		clean[i] = byte(1 + (i*37)%255)
		if clean[i]%8 == 0 {
			clean[i]++
		}
	}
	f.Add(engineOps(clean))
	// +Inf observations folded early, then a worst finite time that rises
	// after them: the clamp moves and the surrogate must rebuild.
	rising := make([]byte, 160)
	for i := range rising {
		switch {
		case i%9 == 0:
			rising[i] = 0 // +Inf
		default:
			rising[i] = byte(1 + i) // times climb through the run
		}
	}
	f.Add(engineOps(rising))
	// Equal times: incumbents keep their index order, as a stable sort
	// would leave them.
	f.Add(engineOps(bytes.Repeat([]byte{9}, 48)))
	// Nothing finite at first: the surrogate stays empty until a finite
	// time arrives.
	f.Add(engineOps(append(make([]byte, 40), 9, 17, 200, 0, 33)))
	// Late and repeated reports below the folded prefix, out-of-order
	// observation, and a hole filled after later indices were folded.
	late := engineOps(clean[:48])
	late = append(late, 3, 7, 0, 5, 3, 200, 0, 5)
	late = append(late, 0, 8, 2, 3, 1, 40, 0, 4, 2, 0, 1, 0, 1, 90, 0, 9)
	f.Add(late)
	f.Fuzz(runOps)
}

// The rebuild triggers must actually fire on the seed shapes above, or
// the fuzz target would only ever compare the append-only path.
func TestRebuildTriggers(t *testing.T) {
	space := flagspec.GCC()
	rng := xrand.NewFromString("bo-rebuild/pools")
	tech, err := New(search.Config{
		Pools:  [][]flagspec.CV{space.Sample(rng, 4), space.Sample(rng, 4)},
		Budget: 100,
		Rng:    xrand.NewFromString("bo-rebuild/technique"),
	})
	if err != nil {
		t.Fatal(err)
	}
	o := tech.(*Optimizer)
	batch := o.Suggest(40)
	o.Observe(0, batch[0], 12)
	o.Observe(1, batch[1], math.Inf(1))
	o.Observe(2, batch[2], 11)
	if s := o.fit(); s == nil || s.infs != 1 || s.worst != 12 || s.folded != 3 {
		t.Fatalf("after first fold: %+v", s)
	}
	// A new worst under a folded +Inf moves the clamp from 24 to 30.
	o.Observe(3, batch[3], 15)
	if s := o.fit(); s.worst != 15 || s.sum != 12+30+11+15 {
		t.Fatalf("clamp did not move: worst %v, sum %v", s.worst, s.sum)
	}
	// A late report below the folded prefix marks the model dirty.
	o.Observe(0, batch[0], 20)
	if !o.dirty {
		t.Fatal("Observe below the folded prefix did not mark the surrogate dirty")
	}
	if s := o.fit(); o.dirty || s.worst != 20 || s.sum != 20+40+11+15 {
		t.Fatalf("rebuild after a late report: worst %v, sum %v", s.worst, s.sum)
	}
	checkFit(t, o, 0)
}
