package trace

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindSession, Sample: -1, Name: "prog/machine/seed"},
		{Kind: KindPhase, PhaseSeq: 1, Phase: "collect", Sample: -1},
		{Kind: KindCompile, PhaseSeq: 1, Phase: "collect", Sample: 0, Step: 0, Modules: 7, Sim: 0.25},
		{Kind: KindLink, PhaseSeq: 1, Phase: "collect", Sample: 0, Step: 1, Sim: 0.5},
		{Kind: KindRun, PhaseSeq: 1, Phase: "collect", Sample: 0, Step: 2, Name: "ok", Seconds: 19.5, Sim: 20.0},
		{Kind: KindFault, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 0, Name: "flake", Attempt: 1, Seconds: 3.5},
		{Kind: KindRetry, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 1, Attempt: 1, Seconds: 5},
		{Kind: KindEval, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 2, Name: "lost", Seconds: math.Inf(1), Sim: 308.5},
		{Kind: KindCache, PhaseSeq: 1, Sample: -1, Name: "object-hit", Sched: true},
	}
}

// Every event — including ±Inf durations — must survive an
// encode→decode→encode cycle byte-identically.
func TestJSONLRoundTrip(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	var first bytes.Buffer
	if err := tr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Events) != len(tr.Events) {
		t.Fatalf("decoded %d events, wrote %d", len(dec.Events), len(tr.Events))
	}
	var second bytes.Buffer
	if err := dec.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encode not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	for i := range tr.Events {
		if tr.Events[i].Kind != dec.Events[i].Kind || tr.Events[i].Name != dec.Events[i].Name {
			t.Fatalf("event %d changed identity across round trip", i)
		}
	}
	if !math.IsInf(dec.Events[7].Seconds, 1) {
		t.Fatalf("+Inf seconds decoded as %v", dec.Events[7].Seconds)
	}
}

// NaN is not produced by the pipeline, so a NaN duration in a trace
// file, a span row or a repository entry is damage: decoding refuses
// it, like every other hex-float reader.
func TestNaNSecondsRefused(t *testing.T) {
	for _, e := range []Event{
		{Kind: KindRun, Sample: 0, Seconds: math.NaN()},
		{Kind: KindRun, Sample: 0, Sim: math.NaN()},
	} {
		data, err := e.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var dec Event
		if err := dec.UnmarshalJSON(data); err == nil {
			t.Errorf("NaN event %s decoded as %+v", data, dec)
		}
	}
	if events, err := DecodeSpan("cfr", 0, []string{"run 0 ok 0 0 NaN 0x1p+00"}); err == nil {
		t.Errorf("NaN span row decoded as %+v", events)
	}
}

// Corrupt events must be rejected with an error, never a panic, and the
// validator must reject out-of-range ordinals.
func TestUnmarshalRejectsCorruptEvents(t *testing.T) {
	bad := map[string]string{
		"not json":       `{{{`,
		"empty kind":     `{"sample":0}`,
		"negative pseq":  `{"kind":"run","pseq":-1,"sample":0}`,
		"negative step":  `{"kind":"run","sample":0,"step":-2}`,
		"sample too low": `{"kind":"run","sample":-2}`,
		"bad seconds":    `{"kind":"run","sample":0,"seconds":"zzz"}`,
		"bad sim":        `{"kind":"run","sample":0,"sim":"0x"}`,
		"negative wall":  `{"kind":"run","sample":0,"wall":-5}`,
	}
	for name, doc := range bad {
		var e Event
		if err := e.UnmarshalJSON([]byte(doc)); err == nil {
			t.Errorf("%s accepted: %s", name, doc)
		}
	}
}

// ReadJSONL must skip blank lines and name the offending line on error.
func TestReadJSONLErrors(t *testing.T) {
	tr, err := ReadJSONL(strings.NewReader("\n{\"kind\":\"run\",\"sample\":0}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("expected 1 event, got %d", len(tr.Events))
	}
	_, err = ReadJSONL(strings.NewReader("{\"kind\":\"run\",\"sample\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("expected a line-2 error, got %v", err)
	}
}

// Canonical must drop scheduling-dependent events, strip wall stamps,
// and order the rest by (PhaseSeq, Sample, Step).
func TestCanonical(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Kind: KindRun, PhaseSeq: 2, Phase: "cfr", Sample: 1, Step: 0, Wall: 99},
		{Kind: KindCache, PhaseSeq: 1, Sample: -1, Name: "object-hit", Sched: true},
		{Kind: KindRun, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 1, Wall: 98},
		{Kind: KindCompile, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 0, Wall: 97},
		{Kind: KindSession, PhaseSeq: 0, Sample: -1, Name: "s", Wall: 96},
	}}
	canon := tr.Canonical()
	if len(canon.Events) != 4 {
		t.Fatalf("expected 4 canonical events, got %d", len(canon.Events))
	}
	want := []Kind{KindSession, KindCompile, KindRun, KindRun}
	for i, e := range canon.Events {
		if e.Kind != want[i] {
			t.Fatalf("canonical order wrong at %d: got %s, want %s", i, e.Kind, want[i])
		}
		if e.Wall != 0 {
			t.Fatalf("canonical event %d kept wall stamp %d", i, e.Wall)
		}
		if e.Sched {
			t.Fatalf("canonical event %d is scheduling-dependent", i)
		}
	}
	// The original trace is untouched.
	if tr.Events[0].Wall != 99 || len(tr.Events) != 5 {
		t.Fatal("Canonical mutated its receiver")
	}
}

// Diff must report "" for equal traces, the first divergent event, and
// length mismatches on either side.
func TestDiff(t *testing.T) {
	a := &Trace{Events: sampleEvents()}
	b := &Trace{Events: sampleEvents()}
	if d := Diff(a, b); d != "" {
		t.Fatalf("equal traces diff: %s", d)
	}
	b.Events[3].Seconds = 42
	if d := Diff(a, b); !strings.Contains(d, "event 3") {
		t.Fatalf("expected divergence at event 3, got: %s", d)
	}
	shorter := &Trace{Events: a.Events[:5]}
	if d := Diff(a, shorter); !strings.Contains(d, "lengths differ") || !strings.Contains(d, "in a") {
		t.Fatalf("expected a-side length diff, got: %s", d)
	}
	if d := Diff(shorter, a); !strings.Contains(d, "in b") {
		t.Fatalf("expected b-side length diff, got: %s", d)
	}
}

// A nil recorder and a nil batch must no-op on every method.
func TestNilRecorderAndBatch(t *testing.T) {
	var r *Recorder
	r.WallClock(func() int64 { return 1 })
	r.Emit(Event{Kind: KindRun})
	r.Session("s")
	r.Phase("p")
	if r.Len() != 0 {
		t.Fatal("nil recorder has events")
	}
	if tr := r.Snapshot(); len(tr.Events) != 0 {
		t.Fatal("nil recorder snapshot non-empty")
	}
	b := r.Batch("collect", 0)
	if b != nil {
		t.Fatal("nil recorder returned a non-nil batch")
	}
	b.Add(Event{Kind: KindRun})
	b.Commit()
}

// The recorder must stamp phase ordinals and wall clocks, and batches
// must stamp span identity and step numbering.
func TestRecorderStamping(t *testing.T) {
	r := NewRecorder()
	wall := int64(100)
	r.WallClock(func() int64 { wall++; return wall })
	r.Session("prog/m/s")
	r.Phase("collect")
	b := r.Batch("collect", 3)
	b.Add(Event{Kind: KindCompile, Modules: 5})
	b.Add(Event{Kind: KindRun, Name: "ok", Seconds: 7})
	b.Commit()
	b.Commit() // empty re-commit is a no-op
	r.Phase("cfr")
	if r.Len() != 5 {
		t.Fatalf("expected 5 events, got %d", r.Len())
	}
	evs := r.Snapshot().Events
	if evs[0].Kind != KindSession || evs[0].PhaseSeq != 0 || evs[0].Sample != -1 {
		t.Fatalf("bad session marker: %+v", evs[0])
	}
	if evs[1].Kind != KindPhase || evs[1].PhaseSeq != 1 || evs[1].Phase != "collect" {
		t.Fatalf("bad phase marker: %+v", evs[1])
	}
	for i, e := range evs[2:4] {
		if e.PhaseSeq != 1 || e.Phase != "collect" || e.Sample != 3 || e.Step != i {
			t.Fatalf("bad span stamping at %d: %+v", i, e)
		}
	}
	if evs[4].Kind != KindPhase || evs[4].PhaseSeq != 2 {
		t.Fatalf("bad second phase marker: %+v", evs[4])
	}
	for i, e := range evs {
		if e.Wall == 0 {
			t.Fatalf("event %d missing wall stamp", i)
		}
	}
}

// Concurrent batches and emits must be safe (run under -race) and lose
// no events.
func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	r.Phase("collect")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				b := r.Batch("collect", w*perWorker+k)
				b.Add(Event{Kind: KindCompile, Modules: 3})
				b.Add(Event{Kind: KindEval, Name: "ok", Seconds: 1})
				b.Commit()
				r.Emit(Event{Kind: KindCache, Sample: -1, Name: "object-hit", Sched: true})
			}
		}(w)
	}
	wg.Wait()
	if want := 1 + workers*perWorker*3; r.Len() != want {
		t.Fatalf("lost events: got %d, want %d", r.Len(), want)
	}
	// Each span's two events stay adjacent (batches commit atomically).
	evs := r.Snapshot().Canonical()
	seen := make(map[int]int)
	for _, e := range evs.Events {
		if e.Sample >= 0 {
			seen[e.Sample]++
		}
	}
	for s, n := range seen {
		if n != 2 {
			t.Fatalf("sample %d has %d events, want 2", s, n)
		}
	}
}
