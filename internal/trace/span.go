package trace

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Span rows are the compact transport form of one evaluation span as a
// detached batch (NewSpanBatch) captures it. Such a span has a fixed
// shape: every event carries the batch's phase and sample, PhaseSeq and
// Wall are zero (CommitSpan re-stamps both), and no event is Sched
// (cache events go to the session recorder, never to a detached batch).
// A row therefore needs only the per-event fields, space-separated:
//
//	kind step name modules attempt seconds sim
//
// The integers are decimal and the two floats use the trace's hex-float
// form ("" for zero), so a row for a compile step reads "compile 0  12 0  ".
// Phase and sample are not in the row: the caller knows them from the
// claim the span belongs to.

// spanFields is the number of space-separated fields in a span row.
const spanFields = 7

// EncodeSpan renders a detached span's events as rows. It refuses any
// event the row form cannot carry: one of another phase or sample, a
// non-zero PhaseSeq or Wall, a Sched event, an empty kind, a negative
// ordinal, or a space in the kind or name.
func EncodeSpan(phase string, sample int, events []Event) ([]string, error) {
	if len(events) == 0 {
		return nil, nil
	}
	rows := make([]string, len(events))
	var buf []byte
	for i, e := range events {
		switch {
		case e.Phase != phase || e.Sample != sample:
			return nil, fmt.Errorf("trace: span event %d belongs to %s/%d, not %s/%d", i, e.Phase, e.Sample, phase, sample)
		case e.PhaseSeq != 0 || e.Wall != 0:
			return nil, fmt.Errorf("trace: span event %d carries a phase ordinal or wall stamp", i)
		case e.Sched:
			return nil, fmt.Errorf("trace: span event %d is scheduling-dependent", i)
		case e.Kind == "":
			return nil, fmt.Errorf("trace: span event %d has an empty kind", i)
		case e.Step < 0 || e.Modules < 0 || e.Attempt < 0:
			return nil, fmt.Errorf("trace: span event %d has a negative ordinal field", i)
		case strings.Contains(string(e.Kind), " ") || strings.Contains(e.Name, " "):
			return nil, fmt.Errorf("trace: span event %d has a space in its kind or name", i)
		}
		buf = append(buf[:0], e.Kind...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Step), 10)
		buf = append(buf, ' ')
		buf = append(buf, e.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Modules), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(e.Attempt), 10)
		buf = append(buf, ' ')
		buf = append(buf, formatSeconds(e.Seconds)...)
		buf = append(buf, ' ')
		buf = append(buf, formatSeconds(e.Sim)...)
		rows[i] = string(buf)
	}
	return rows, nil
}

// DecodeSpan rebuilds a span's events from rows, stamping each with
// phase and sample. It applies Event.UnmarshalJSON's checks — a
// non-empty kind, non-negative step, modules and attempt, parsable
// floats — and requires exactly seven fields per row. It never panics
// on corrupt input.
func DecodeSpan(phase string, sample int, rows []string) ([]Event, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	events := make([]Event, len(rows))
	for i, row := range rows {
		if err := decodeRow(row, &events[i]); err != nil {
			return nil, fmt.Errorf("trace: span row %d: %w", i, err)
		}
		events[i].Phase = phase
		events[i].Sample = sample
	}
	return events, nil
}

// decodeRow parses one span row into e's per-event fields.
func decodeRow(row string, e *Event) error {
	var f [spanFields]string
	rest := row
	for i := 0; i < spanFields-1; i++ {
		var ok bool
		if f[i], rest, ok = strings.Cut(rest, " "); !ok {
			return fmt.Errorf("%d fields, want %d", i+1, spanFields)
		}
	}
	if strings.Contains(rest, " ") {
		return fmt.Errorf("more than %d fields", spanFields)
	}
	f[spanFields-1] = rest
	if f[0] == "" {
		return errors.New("empty kind")
	}
	var ints [3]int
	for j, s := range []string{f[1], f[3], f[4]} {
		v, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("bad ordinal %q", s)
		}
		if v < 0 {
			return errors.New("negative ordinal field")
		}
		ints[j] = v
	}
	secs, err := parseSeconds(f[5])
	if err != nil {
		return fmt.Errorf("bad seconds %q: %v", f[5], err)
	}
	sim, err := parseSeconds(f[6])
	if err != nil {
		return fmt.Errorf("bad sim %q: %v", f[6], err)
	}
	*e = Event{
		Kind:    Kind(f[0]),
		Step:    ints[0],
		Name:    f[2],
		Modules: ints[1],
		Attempt: ints[2],
		Seconds: secs,
		Sim:     sim,
	}
	return nil
}
