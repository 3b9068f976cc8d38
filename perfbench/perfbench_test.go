package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestSameSeedSameOps(t *testing.T) {
	ops := func(seed int64) (campaign []spec, daemon [][]spec, fresh [][]bool) {
		g := newCampaignGen(seed)
		for i := 0; i < 100; i++ {
			campaign = append(campaign, g.next())
		}
		for c := 0; c < daemonClients; c++ {
			dg := newDaemonGen(seed, c)
			var ss []spec
			var fs []bool
			for i := 0; i < 40; i++ {
				s, f := dg.next()
				ss, fs = append(ss, s), append(fs, f)
			}
			daemon, fresh = append(daemon, ss), append(fresh, fs)
		}
		return campaign, daemon, fresh
	}
	c1, d1, f1 := ops(7)
	c2, d2, f2 := ops(7)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(f1, f2) {
		t.Fatal("the same seed gave different operation sequences")
	}
	if !reflect.DeepEqual(fleetSpecs(7), fleetSpecs(7)) {
		t.Fatal("the same seed gave different fleet specs")
	}
	c3, d3, _ := ops(8)
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(d1, d3) || reflect.DeepEqual(fleetSpecs(7), fleetSpecs(8)) {
		t.Fatal("different seeds gave the same operation sequence")
	}
}

func TestOpMix(t *testing.T) {
	g := newCampaignGen(3)
	seen := map[string]int{}
	var repeats int
	for i := 0; i < 21*repeatEvery; i++ {
		s := g.next()
		if seen[s.key()] > 0 {
			repeats++
		}
		seen[s.key()]++
	}
	if repeats != 21 {
		t.Fatalf("%d repeated campaign specs in %d ops, want 21", repeats, 21*repeatEvery)
	}
	for c := 0; c < daemonClients; c++ {
		dg := newDaemonGen(3, c)
		nFresh := 0
		for i := 0; i < 40; i++ {
			s, fresh := dg.next()
			if fresh {
				nFresh++
			} else if !reflect.DeepEqual(s, dg.stored[0]) && !reflect.DeepEqual(s, dg.stored[1]) {
				t.Fatalf("client %d resubmitted %v, which it did not store", c, s)
			}
		}
		if nFresh != 40/daemonFreshEvery {
			t.Fatalf("client %d: %d fresh ops in 40, want %d", c, nFresh, 40/daemonFreshEvery)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{{50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4, 1, 3}, 25); got != 2 {
		t.Errorf("percentile({4,1,3}, 25) = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no values is not NaN")
	}
}

// TestQuartiles checks against values from Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7.5, 1, 2, 10, 4, 4.5}, [3]float64{1.75, 4.25, 8.125}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestCheckerCountsMismatch(t *testing.T) {
	c := newChecker()
	s := spec{Program: "CL", Technique: "cfr", Seed: "x"}
	if !c.check(s, 42) || !c.check(s, 42) {
		t.Fatal("matching fingerprints rejected")
	}
	if c.check(s, 43) {
		t.Fatal("mismatched fingerprint accepted")
	}
}

// TestForcedMismatchIsAFailure plants a wrong reference fingerprint for the
// first campaign op and checks that the measured pass counts it failed.
func TestForcedMismatchIsAFailure(t *testing.T) {
	c, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	b := &campaignBench{e: &env{seed: 5, nproc: 2}, c: c, gen: newCampaignGen(5), chk: newChecker()}
	b.chk.check(newCampaignGen(5).next(), 0xbad)
	p, err := b.measure(time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.attempted != 1 || p.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 1 and 1", p.attempted, p.failed)
	}
}

func TestSelfTimesAccountForWall(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{parent: -1, layer: "", start: 0, end: 10 * ms},               // root: 10
		{parent: 0, layer: layerCore, start: 1 * ms, end: 9 * ms},     // core: 8
		{parent: 1, layer: layerCompiler, start: 2 * ms, end: 4 * ms}, // compiler: 2
		{parent: -1, layer: layerFleet, start: 2 * ms, end: 6 * ms},   // concurrent: 4
		{parent: -1, layer: layerServer, start: 11 * ms, end: -1},     // open: cut at wall
		{parent: -1, layer: layerTrace, start: 13 * ms, end: 14 * ms}, // after wall
		{parent: 1, layer: layerExec, start: 5 * ms, end: 5 * ms},     // empty
		{parent: 0, layer: layerSearch, start: 9 * ms, end: 10 * ms},  // search: 1
	}
	self, unaccounted := selfTimes(spans, 12*ms)
	sec := func(n int64) float64 { return float64(n*ms) / 1e9 }
	want := map[string]float64{
		// [2,4): compiler and fleet share; [4,6): core and fleet share.
		layerCompiler: sec(1),
		layerFleet:    sec(2),
		layerCore:     sec(1) + sec(1) + sec(3), // [1,2) + half of [4,6) + [6,9)
		layerSearch:   sec(1),
		layerServer:   sec(1),
	}
	for l, w := range want {
		if math.Abs(self[l]-w) > 1e-12 {
			t.Errorf("%s self time %v, want %v", l, self[l], w)
		}
	}
	// Root self time [0,1) and the gap [10,11) are unaccounted.
	if math.Abs(unaccounted-sec(2)) > 1e-12 {
		t.Errorf("unaccounted %v, want %v", unaccounted, sec(2))
	}
	total := unaccounted
	for _, v := range self {
		total += v
	}
	if math.Abs(total-sec(12)) > 1e-12 {
		t.Errorf("self times sum to %v, want the wall %v", total, sec(12))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var wantNames []string
	for _, w := range workloads {
		wantNames = append(wantNames, w.name)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, wantNames)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, want []metric) {
		var got []metric
		for _, m := range listed {
			got = append(got, metric{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s metrics %v, benchmark reports %v", kind, got, want)
		}
	}
	check("end-to-end", bench.EndToEnd, e2eMetrics)
	check("per-layer", bench.PerLayer, layerMetrics)
}
