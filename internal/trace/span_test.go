package trace

import (
	"math"
	"strings"
	"testing"
)

// detachedSpan records events through a detached batch, the way a fleet
// worker captures one evaluation.
func detachedSpan(phase string, sample int, events ...Event) []Event {
	b := NewSpanBatch(phase, sample)
	for _, e := range events {
		b.Add(e)
	}
	return b.Events()
}

// sameFloat is bit-blind equality that also equates NaNs.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// sameEvents reports whether two spans decode to the same events.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !sameFloat(x.Seconds, y.Seconds) || !sameFloat(x.Sim, y.Sim) {
			return false
		}
		x.Seconds, x.Sim, y.Seconds, y.Sim = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// TestSpanRowRoundTrip: clean and faulted detached spans survive the row
// codec event for event, each row is the documented seven-field text,
// and every event or row the form cannot carry is refused.
func TestSpanRowRoundTrip(t *testing.T) {
	clean := detachedSpan("cfr", 3,
		Event{Kind: KindCompile, Modules: 12},
		Event{Kind: KindLink},
		Event{Kind: KindRun, Name: "ok", Seconds: 19.5, Sim: 20.25},
		Event{Kind: KindEval, Name: "ok", Seconds: 19.5, Sim: 20.25},
	)
	faulted := detachedSpan("collect", 0,
		Event{Kind: KindCompile, Modules: 7},
		Event{Kind: KindLink},
		Event{Kind: KindFault, Name: "flake", Seconds: 3.5, Sim: 4},
		Event{Kind: KindRetry, Attempt: 1, Seconds: 5, Sim: 9},
		Event{Kind: KindFault, Name: "timeout", Seconds: 60, Sim: 69},
		Event{Kind: KindEval, Name: "lost", Seconds: math.Inf(1), Sim: 308.5},
	)
	for _, tc := range []struct {
		name   string
		phase  string
		sample int
		events []Event
		rows   []string
	}{
		{"clean", "cfr", 3, clean, []string{
			"compile 0  12 0  ",
			"link 1  0 0  ",
			"run 2 ok 0 0 0x1.38p+04 0x1.44p+04",
			"eval 3 ok 0 0 0x1.38p+04 0x1.44p+04",
		}},
		{"faulted", "collect", 0, faulted, []string{
			"compile 0  7 0  ",
			"link 1  0 0  ",
			"fault 2 flake 0 0 0x1.cp+01 0x1p+02",
			"retry 3  0 1 0x1.4p+02 0x1.2p+03",
			"fault 4 timeout 0 0 0x1.ep+05 0x1.14p+06",
			"eval 5 lost 0 0 +Inf 0x1.348p+08",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := EncodeSpan(tc.phase, tc.sample, tc.events)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			if strings.Join(rows, "\n") != strings.Join(tc.rows, "\n") {
				t.Fatalf("rows =\n%s\nwant\n%s", strings.Join(rows, "\n"), strings.Join(tc.rows, "\n"))
			}
			back, err := DecodeSpan(tc.phase, tc.sample, rows)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !sameEvents(back, tc.events) {
				t.Fatalf("span mangled:\n%+v\nwant\n%+v", back, tc.events)
			}
		})
	}

	t.Run("empty", func(t *testing.T) {
		rows, err := EncodeSpan("cfr", 3, nil)
		if err != nil || rows != nil {
			t.Fatalf("empty span encoded as %q, %v", rows, err)
		}
		events, err := DecodeSpan("cfr", 3, nil)
		if err != nil || events != nil {
			t.Fatalf("no rows decoded as %+v, %v", events, err)
		}
	})

	t.Run("negative zero collapses", func(t *testing.T) {
		in := detachedSpan("cfr", 1, Event{Kind: KindRun, Name: "ok", Seconds: math.Copysign(0, -1)})
		rows, err := EncodeSpan("cfr", 1, in)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0] != "run 0 ok 0 0  " {
			t.Fatalf("-0 row = %q", rows[0])
		}
		back, err := DecodeSpan("cfr", 1, rows)
		if err != nil {
			t.Fatal(err)
		}
		if back[0].Seconds != 0 || math.Signbit(back[0].Seconds) {
			t.Fatalf("-0 decoded as %v, want +0", back[0].Seconds)
		}
	})

	ok := Event{Kind: KindRun, Phase: "cfr", Sample: 3, Name: "ok", Seconds: 1}
	for name, mut := range map[string]func(*Event){
		"other phase":    func(e *Event) { e.Phase = "fr" },
		"other sample":   func(e *Event) { e.Sample = 4 },
		"phase ordinal":  func(e *Event) { e.PhaseSeq = 2 },
		"wall stamp":     func(e *Event) { e.Wall = 12345 },
		"sched":          func(e *Event) { e.Sched = true },
		"empty kind":     func(e *Event) { e.Kind = "" },
		"negative step":  func(e *Event) { e.Step = -1 },
		"negative mods":  func(e *Event) { e.Modules = -1 },
		"negative retry": func(e *Event) { e.Attempt = -1 },
		"space in kind":  func(e *Event) { e.Kind = "r un" },
		"space in name":  func(e *Event) { e.Name = "o k" },
	} {
		e := ok
		mut(&e)
		if rows, err := EncodeSpan("cfr", 3, []Event{ok, e}); err == nil {
			t.Errorf("encode %s: accepted as %q", name, rows)
		}
	}

	good := "run 2 ok 0 0 0x1p+00 0x1p+01"
	if _, err := DecodeSpan("cfr", 3, []string{good}); err != nil {
		t.Fatalf("good row refused: %v", err)
	}
	for name, row := range map[string]string{
		"empty row":        "",
		"six fields":       "run 2 ok 0 0 0x1p+00",
		"eight fields":     good + " ",
		"empty kind":       " 2 ok 0 0 0x1p+00 0x1p+01",
		"negative step":    "run -1 ok 0 0 0x1p+00 0x1p+01",
		"negative modules": "run 2 ok -1 0 0x1p+00 0x1p+01",
		"negative attempt": "run 2 ok 0 -1 0x1p+00 0x1p+01",
		"empty step":       "run  ok 0 0 0x1p+00 0x1p+01",
		"non-integer step": "run 2.5 ok 0 0 0x1p+00 0x1p+01",
		"bad seconds":      "run 2 ok 0 0 fast 0x1p+01",
		"bad sim":          "run 2 ok 0 0 0x1p+00 0xzz",
	} {
		if events, err := DecodeSpan("cfr", 3, []string{good, row}); err == nil {
			t.Errorf("decode %s: %q accepted as %+v", name, row, events)
		}
	}
}

// FuzzDecodeSpan feeds arbitrary newline-separated rows to the decoder:
// it must never panic, and any span it accepts must survive re-encoding:
// decode(encode(decode(rows))) == decode(rows).
func FuzzDecodeSpan(f *testing.F) {
	f.Add("cfr", 3, "compile 0  12 0  \nlink 1  0 0  \nrun 2 ok 0 0 0x1.38p+04 0x1.44p+04\neval 3 ok 0 0 0x1.38p+04 0x1.44p+04")
	f.Add("collect", 0, "retry 3  0 1 0x1.4p+02 0x1.2p+03\neval 5 lost 0 0 +Inf 0x1.348p+08")
	f.Add("cfr", 1, "run 0 ok 0 0 -0 NaN")
	f.Add("cfr", 1, "run 0 ok 0 0 0x1p+00")
	f.Add("cfr", 1, "run -1 ok 0 0  ")
	f.Add("", -1, "")
	f.Fuzz(func(t *testing.T, phase string, sample int, data string) {
		var rows []string
		if data != "" {
			rows = strings.Split(data, "\n")
		}
		events, err := DecodeSpan(phase, sample, rows)
		if err != nil {
			return
		}
		again, err := EncodeSpan(phase, sample, events)
		if err != nil {
			t.Fatalf("decoded span refused by the encoder: %v", err)
		}
		back, err := DecodeSpan(phase, sample, again)
		if err != nil {
			t.Fatalf("re-encoded rows refused: %v", err)
		}
		if !sameEvents(back, events) {
			t.Fatalf("span changed across decode(encode(decode)):\n%+v\nvs\n%+v", back, events)
		}
	})
}
