package funcytuner

import (
	"strings"
	"testing"

	"funcytuner/internal/xrand"
)

// goldenCase is one pinned tuning run: its configuration and the
// Report.Fingerprint, canonical-trace hash and best time it must keep.
type goldenCase struct {
	name         string
	app, machine string
	technique    string // "" is CFR
	samples      int
	topx         int
	seed         string
	faults       bool
	faultScale   float64 // multiplies DefaultFaultRates; 0 means 1
	adaptive     bool
	fingerprint  uint64
	traceHash    uint64 // 0: not pinned (adaptive trace covered elsewhere)
	best         float64
}

// runGoldenCases runs every case in parallel and compares it with its
// pinned values.
func runGoldenCases(t *testing.T, cases []goldenCase) {
	t.Helper()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog, err := Benchmark(c.app)
			if err != nil {
				t.Fatal(err)
			}
			m, err := MachineByName(c.machine)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Machine: m, Samples: c.samples, TopX: c.topx, Seed: c.seed, Technique: c.technique}
			if c.faults {
				opts.Faults = DefaultFaultRates()
				if c.faultScale != 0 {
					opts.Faults = opts.Faults.Scale(c.faultScale)
				}
			}
			rec := NewTraceRecorder()
			opts.Trace = rec
			in := TuningInput(c.app, m)
			var rep *Report
			if c.adaptive {
				rep, err = NewTuner(opts).TuneAdaptive(prog, in, DefaultStopRule())
			} else {
				rep, err = NewTuner(opts).Tune(prog, in)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Fingerprint(); got != c.fingerprint {
				t.Errorf("fingerprint = %#x, want pinned %#x", got, c.fingerprint)
			}
			if c.best != 0 && rep.Best.BestMeasured != c.best {
				t.Errorf("Best.BestMeasured = %v, want %v", rep.Best.BestMeasured, c.best)
			}
			if c.traceHash != 0 {
				var sb strings.Builder
				if err := rec.Snapshot().Canonical().WriteJSONL(&sb); err != nil {
					t.Fatal(err)
				}
				if got := xrand.HashString(sb.String()); got != c.traceHash {
					t.Errorf("canonical trace hash = %#x, want pinned %#x", got, c.traceHash)
				}
			}
		})
	}
}

// TestCFRGoldenFingerprints pins the default-technique (CFR) pipeline to
// fingerprints and canonical-trace hashes captured before the search side
// of internal/core was refactored behind the suggest/observe technique
// interface. CFR runs through the generic driver now; these goldens prove
// the refactor — and any future technique work — is byte-invisible to CFR
// users: same Report.Fingerprint, same canonical trace, same best time.
func TestCFRGoldenFingerprints(t *testing.T) {
	t.Parallel()
	runGoldenCases(t, []goldenCase{
		{
			name: "clean", app: CloverLeaf, machine: "broadwell",
			samples: 120, topx: 12, seed: "technique-golden",
			fingerprint: 0xac88b78148fd0816,
			traceHash:   0x4c0fc30c6d28cb51,
			best:        19.093228197221265,
		},
		{
			name: "faulted", app: Swim, machine: "sandybridge",
			samples: 60, topx: 10, seed: "technique-golden-faults", faults: true,
			fingerprint: 0x6f2761ed5569f99d,
			traceHash:   0x6546c3ceea4b6fb5,
			best:        11.554418986977778,
		},
		{
			name: "adaptive", app: CloverLeaf, machine: "broadwell",
			samples: 120, topx: 12, seed: "technique-golden", adaptive: true,
			fingerprint: 0x94f5505fbc86957a,
		},
	})
}

// TestTechniqueGoldenFingerprints pins BO and GA, clean and faulted, to
// values captured while BO still refit its surrogate from scratch on
// every Suggest. The budgets are large enough that BO runs many
// acquisition rounds. The faulted runs use four times the default fault
// rates, because the default rates crash none of the assemblies these
// seeds draw; at 4x, BO folds +Inf observations from its first
// acquisition round on. An incremental surrogate that drifts from the
// full refit by a single bit shows up here.
func TestTechniqueGoldenFingerprints(t *testing.T) {
	t.Parallel()
	runGoldenCases(t, []goldenCase{
		{
			name: "bo/clean", app: CloverLeaf, machine: "broadwell", technique: "bo",
			samples: 320, topx: 12, seed: "technique-golden",
			fingerprint: 0xd18e7eba1076a1f9,
			traceHash:   0xcefd4456930bceaa,
			best:        17.765510839054304,
		},
		{
			name: "bo/faulted", app: Swim, machine: "sandybridge", technique: "bo",
			samples: 320, topx: 10, seed: "technique-golden-faults", faults: true, faultScale: 4,
			fingerprint: 0x584e00594be4cbaa,
			traceHash:   0xaac31a7fa4846b6e,
			best:        10.87414461960141,
		},
		{
			name: "ga/clean", app: CloverLeaf, machine: "broadwell", technique: "ga",
			samples: 320, topx: 12, seed: "technique-golden",
			fingerprint: 0x4dbeac39568886bb,
			traceHash:   0x977d2d190dfb1645,
			best:        17.265385646555778,
		},
		{
			name: "ga/faulted", app: Swim, machine: "sandybridge", technique: "ga",
			samples: 320, topx: 10, seed: "technique-golden-faults", faults: true, faultScale: 4,
			fingerprint: 0x2d17bd04aa9f287d,
			traceHash:   0x1be0c5d306150fc5,
			best:        10.777995332689072,
		},
	})
}
