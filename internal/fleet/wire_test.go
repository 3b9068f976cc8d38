package fleet

import (
	"fmt"
	"strings"
	"testing"

	"funcytuner/internal/flagspec"
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
