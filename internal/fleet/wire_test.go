package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/fsx"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
)

// wireSpaces are the flag spaces a worker decodes rows against.
var wireSpaces = map[string]*flagspec.Space{"icc": flagspec.ICC(), "gcc": flagspec.GCC()}

// TestWireCVRoundTrip: every CV survives the hex row codec with its
// values and fingerprint intact, each row is the lowercase two-digits-
// per-flag rendering of its value indices, and malformed rows are
// refused.
func TestWireCVRoundTrip(t *testing.T) {
	for name, space := range wireSpaces {
		t.Run(name, func(t *testing.T) {
			cvs := append([]flagspec.CV{space.Baseline(), space.Baseline().With(0, space.AltValue(0))},
				space.Sample(xrand.New(7), 64)...)
			rows := encodeCVs(cvs)
			for i, cv := range cvs {
				var want strings.Builder
				for f := 0; f < space.NumFlags(); f++ {
					fmt.Fprintf(&want, "%02x", cv.Value(f))
				}
				if rows[i] != want.String() {
					t.Fatalf("row %d = %q, want %q", i, rows[i], want.String())
				}
			}
			back, err := decodeCVs(space, rows)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for i := range cvs {
				if !back[i].Equal(cvs[i]) || back[i].Key() != cvs[i].Key() {
					t.Errorf("CV %d mangled: %v, want %v", i, back[i], cvs[i])
				}
			}

			good := rows[0]
			outOfRange := fmt.Sprintf("%02x", len(space.Flags[0].Values)) + good[2:]
			for bad, row := range map[string]string{
				"odd length":         good + "0",
				"non-hex":            good + "zz",
				"short row":          good[2:],
				"long row":           good + "00",
				"index out of range": outOfRange,
			} {
				if _, err := decodeCVs(space, []string{good, row}); err == nil {
					t.Errorf("%s row %q decoded", bad, row)
				}
			}
		})
	}
}

// FuzzDecodeCVs feeds arbitrary comma-separated rows to the decoder
// against both spaces: it must never panic, and any accepted batch must
// survive re-encoding: decode(encode(decode(rows))) == decode(rows).
func FuzzDecodeCVs(f *testing.F) {
	for _, space := range wireSpaces {
		f.Add(strings.Join(encodeCVs(space.Sample(xrand.New(3), 4)), ","))
		f.Add(encodeCVs([]flagspec.CV{space.Baseline()})[0])
	}
	for _, seed := range []string{"", "0", "zz", "0A", "ff", ",", "00,"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		var rows []string
		if data != "" {
			rows = strings.Split(data, ",")
		}
		for name, space := range wireSpaces {
			cvs, err := decodeCVs(space, rows)
			if err != nil {
				continue
			}
			back, err := decodeCVs(space, encodeCVs(cvs))
			if err != nil {
				t.Fatalf("%s: re-encoded rows refused: %v", name, err)
			}
			for i := range cvs {
				if !back[i].Equal(cvs[i]) || back[i].Key() != cvs[i].Key() {
					t.Fatalf("%s: CV %d changed across decode(encode(decode))", name, i)
				}
			}
		}
	})
}

// TestWireOutcomeRoundTrip: a faulted, lost evaluation survives
// encodeOutcome → JSON → decode with every float bit, counter, key and
// span event intact; the span travels as rows without phase or sample;
// and decode refuses what a checkpoint would — NaN times, negative cost
// counters — plus malformed totals, keys and span rows.
func TestWireOutcomeRoundTrip(t *testing.T) {
	span := trace.NewSpanBatch("cfr", 3)
	span.Add(trace.Event{Kind: trace.KindCompile, Modules: 7})
	span.Add(trace.Event{Kind: trace.KindLink})
	span.Add(trace.Event{Kind: trace.KindFault, Name: "flake", Seconds: 3.5, Sim: 4})
	span.Add(trace.Event{Kind: trace.KindRetry, Attempt: 1, Seconds: 5, Sim: 9})
	span.Add(trace.Event{Kind: trace.KindEval, Name: "lost", Seconds: math.Inf(1), Sim: 9.5})
	in := core.EvalOutcome{
		PerModule:   []float64{1.5, math.Inf(1), 0.25},
		Total:       math.Inf(1),
		Cost:        core.CostSnapshot{Compiles: 7, Runs: 2, SimMicros: 123456, Flakes: 1},
		Quarantined: []uint64{0xdeadbeef, 42},
		Events:      span.Events(),
	}
	enc, err := encodeOutcome("cfr", 3, in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if len(enc.Span) != 5 || enc.Span[0] != "compile 0  7 0  " || enc.Span[4] != "eval 4 lost 0 0 +Inf 0x1.3p+03" {
		t.Errorf("span rows %q", enc.Span)
	}
	data, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	var wire Outcome
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	out, err := wire.decode("cfr", 3)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !math.IsInf(out.Total, 1) {
		t.Errorf("total %v, want +Inf", out.Total)
	}
	if len(out.PerModule) != 3 || out.PerModule[0] != 1.5 || !math.IsInf(out.PerModule[1], 1) || out.PerModule[2] != 0.25 {
		t.Errorf("per-module %v mangled", out.PerModule)
	}
	if out.Cost != in.Cost {
		t.Errorf("cost %+v != %+v", out.Cost, in.Cost)
	}
	if len(out.Quarantined) != 2 || out.Quarantined[0] != 0xdeadbeef || out.Quarantined[1] != 42 {
		t.Errorf("quarantine keys %v mangled", out.Quarantined)
	}
	if !reflect.DeepEqual(out.Events, in.Events) {
		t.Errorf("events mangled:\n%+v\nwant\n%+v", out.Events, in.Events)
	}

	// A span that is not the claim's detached span cannot be encoded.
	for name, mut := range map[string]func([]trace.Event){
		"other sample": func(es []trace.Event) { es[1].Sample = 4 },
		"sched event":  func(es []trace.Event) { es[2].Sched = true },
	} {
		bad := in
		bad.Events = span.Events()
		mut(bad.Events)
		if _, err := encodeOutcome("cfr", 3, bad); err == nil {
			t.Errorf("encode %s: accepted", name)
		}
	}

	nan := fsx.HexFloat(math.NaN())
	for name, tc := range map[string]struct {
		o    Outcome
		want string
	}{
		"bogus total":         {Outcome{Total: "bogus"}, "total"},
		"NaN total":           {Outcome{Total: nan}, "total"},
		"NaN per-module time": {Outcome{Total: "0x1p+00", PerModule: []string{"0x1p+00", nan}}, "per-module time 1"},
		"bogus quarantine":    {Outcome{Total: "0x1p+00", Quarantined: []string{"zz"}}, "quarantine key"},
		"negative compiles":   {Outcome{Total: "0x1p+00", Cost: core.CostSnapshot{Compiles: -1}}, "compiles"},
		"negative flakes":     {Outcome{Total: "0x1p+00", Cost: core.CostSnapshot{Runs: 1, Flakes: -2}}, "flakes"},
		"short span row":      {Outcome{Total: "0x1p+00", Span: []string{"compile 0  7 0 "}}, "span row 0"},
		"negative span step":  {Outcome{Total: "0x1p+00", Span: []string{"compile 0  7 0  ", "link -1  0 0  "}}, "span row 1"},
	} {
		if _, err := tc.o.decode("cfr", 3); err == nil {
			t.Errorf("%s: decoded", name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}
