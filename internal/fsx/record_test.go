package fsx

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"funcytuner/internal/xrand"
)

// Every body Seal accepts comes back from Unseal byte-for-byte, in
// particular the characters json.Marshal would HTML-escape: an escaped
// copy on disk would no longer match its checksum.
func TestSealRoundTrip(t *testing.T) {
	for _, body := range []string{
		`{"fingerprint":"00deadbeef001234","speedup":"0x1.8p+00"}`,
		`{"x":"<a>"}`,
		`{"x":"a&b"}`,
		"{\"x\":\"a\u2028b\u2029c\"}", // raw U+2028 and U+2029
		`"just a string"`,
		`[1,2,3]`,
	} {
		for _, key := range []string{"", "00c0ffee00c0ffee"} {
			data, err := Seal(7, key, []byte(body))
			if err != nil {
				t.Fatalf("Seal(%q): %v", body, err)
			}
			v, got, err := Unseal(data, key)
			if err != nil || v != 7 || string(got) != body {
				t.Errorf("Unseal(Seal(%q), %q) = %d, %q, %v", body, key, v, got, err)
			}
		}
	}
}

// The layout is pinned: fleet journals written before the codec existed
// must keep replaying, so a keyless record is exactly the journal line.
func TestSealLayout(t *testing.T) {
	body := `{"seq":1,"op":"worker","worker":"w1"}`
	sum := fmt.Sprintf("%016x", xrand.HashString(body))
	for key, want := range map[string]string{
		"":     `{"v":3,"sum":"` + sum + `","body":` + body + `}`,
		"00ab": `{"v":3,"key":"00ab","sum":"` + sum + `","body":` + body + `}`,
	} {
		got, err := Seal(3, key, []byte(body))
		if err != nil || string(got) != want {
			t.Errorf("Seal(3, %q) = %s, %v; want %s", key, got, err, want)
		}
	}
	// Seal compacts: the checksum covers the bytes on disk.
	got, err := Seal(3, "", []byte("{ \"seq\": 1,\n\"op\":\"worker\",\"worker\":\"w1\" }"))
	if err != nil || string(got) != `{"v":3,"sum":"`+sum+`","body":`+body+`}` {
		t.Errorf("Seal of spaced body = %s, %v", got, err)
	}
}

func TestSealRefuses(t *testing.T) {
	for name, tc := range map[string]struct{ key, body string }{
		"not JSON":       {"", "not json"},
		"empty body":     {"", ""},
		"quoted key":     {`a"b`, `{}`},
		"backslash key":  {`a\b`, `{}`},
		"non-ASCII key":  {"ключ", `{}`},
		"control in key": {"a\nb", `{}`},
	} {
		if data, err := Seal(1, tc.key, []byte(tc.body)); err == nil {
			t.Errorf("%s: sealed as %s", name, data)
		}
	}
}

// Unseal accepts exactly what Seal writes: every other spelling of the
// same record, and every damaged one, is refused.
func TestUnsealRefuses(t *testing.T) {
	const key = "00c0ffee00c0ffee"
	good, err := Seal(2, key, []byte(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	sum := fmt.Sprintf("%016x", xrand.HashString(`{"x":1}`))
	spaced := fmt.Sprintf("%016x", xrand.HashString(`{"x": 1}`))
	for name, data := range map[string]string{
		"empty":            "",
		"garbage":          "\x00\xff not a record",
		"truncated":        string(good[:len(good)/2]),
		"trailing newline": string(good) + "\n",
		"leading space":    " " + string(good),
		"version +2":       `{"v":+2,"key":"` + key + `","sum":"` + sum + `","body":{"x":1}}`,
		"version 02":       `{"v":02,"key":"` + key + `","sum":"` + sum + `","body":{"x":1}}`,
		"version float":    `{"v":2.0,"key":"` + key + `","sum":"` + sum + `","body":{"x":1}}`,
		"other key":        `{"v":2,"key":"00c0ffee00c0fff0","sum":"` + sum + `","body":{"x":1}}`,
		"no key":           `{"v":2,"sum":"` + sum + `","body":{"x":1}}`,
		"fields reordered": `{"v":2,"sum":"` + sum + `","key":"` + key + `","body":{"x":1}}`,
		"spaced envelope":  `{"v":2, "key":"` + key + `","sum":"` + sum + `","body":{"x":1}}`,
		"spaced body":      `{"v":2,"key":"` + key + `","sum":"` + spaced + `","body":{"x": 1}}`,
		"bad checksum":     `{"v":2,"key":"` + key + `","sum":"0000000000000000","body":{"x":1}}`,
		"short checksum":   `{"v":2,"key":"` + key + `","sum":"` + sum[:15] + `","body":{"x":1}}`,
		"upper checksum":   `{"v":2,"key":"` + key + `","sum":"` + strings.ToUpper(sum) + `","body":{"x":1}}`,
		"empty body":       `{"v":2,"key":"` + key + `","sum":"` + fmt.Sprintf("%016x", xrand.HashString("")) + `","body":}`,
		"invalid body": `{"v":2,"key":"` + key + `","sum":"` + fmt.Sprintf("%016x", xrand.HashString(`{"x":`)) +
			`","body":{"x":}`,
		"old envelope": `{"version":2,"key":"` + key + `","checksum":"` + sum + `","body":{"x":1}}`,
	} {
		if v, body, err := Unseal([]byte(data), key); err == nil {
			t.Errorf("%s: accepted as version %d body %q", name, v, body)
		}
	}
	if _, _, err := Unseal(good, ""); err == nil {
		t.Error("keyed record accepted without a key")
	}
	if _, _, err := Unseal(good, key[:8]); err == nil {
		t.Error("keyed record accepted under a prefix of its key")
	}
}

// Hex floats round-trip every legitimate measurement, including the
// ±Inf of failed evaluations; NaN and garbage are refused.
func TestHexFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, 1e-300, 123.456789012345678, math.Inf(1), math.Inf(-1), 5772.25, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		got, err := ParseHexFloat(HexFloat(v))
		if err != nil {
			t.Fatalf("ParseHexFloat(HexFloat(%v)): %v", v, err)
		}
		if got != v {
			t.Fatalf("round-trip %v -> %v", v, got)
		}
	}
	if s := HexFloat(1.5); s != "0x1.8p+00" {
		t.Errorf("HexFloat(1.5) = %q", s)
	}
	for _, s := range []string{HexFloat(math.NaN()), "NaN", "nan", "bogus", "", "0x1p+99999"} {
		if v, err := ParseHexFloat(s); err == nil {
			t.Errorf("ParseHexFloat(%q) = %v, want an error", s, v)
		}
	}
}

// FuzzUnseal feeds arbitrary bytes and keys to Unseal: it never panics,
// a record it accepts re-seals byte-identically, and the same record is
// refused under any other key.
func FuzzUnseal(f *testing.F) {
	for _, key := range []string{"", "00c0ffee00c0ffee"} {
		data, err := Seal(3, key, []byte(`{"seq":1,"op":"worker","worker":"w<1>"}`))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, key, "other")
		f.Add(data[:len(data)-1], key, "")
	}
	f.Add([]byte(`{"v":-1,"sum":"0000000000000000","body":0}`), "", "k")
	f.Add([]byte(`{"v":1,"key":"k","sum":"0000000000000000","body":{}}`), "k", "")
	f.Add([]byte("{}"), "", "")
	f.Fuzz(func(t *testing.T, data []byte, key, other string) {
		v, body, err := Unseal(data, key)
		if err != nil {
			return
		}
		again, err := Seal(v, key, body)
		if err != nil {
			t.Fatalf("accepted body refused by Seal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record does not re-seal byte-identically:\n%q\nvs\n%q", data, again)
		}
		if other != key {
			if _, _, err := Unseal(data, other); err == nil {
				t.Fatalf("record sealed under %q accepted under %q", key, other)
			}
		}
	})
}
