package compiler

import (
	"encoding/json"
	"path/filepath"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/fsx"
	"funcytuner/internal/ir"
)

// Spill support: persisting the object tier to disk so warm compile-
// cache speedups survive a daemon restart.
//
// Only the object tier spills. An ObjectModule is plain data — module
// identity, a knob set, per-loop decisions and cost parameters — and
// round-trips exactly (floats travel as strconv hex strings, like
// checkpoints). An Executable does not: it carries the live *ir.Program
// and a process-local run memo, so the link tier stays memory-only and
// a restarted daemon re-links from spilled objects. That is the right
// trade anyway: per-loop pass-pipeline work (the object tier's content)
// dominates compile cost in this model, exactly as it does for ccache.

// spillLoop is LoopCode's wire form. Ints and bools map directly;
// floats travel as hex strings for exact round-trip.
type spillLoop struct {
	LoopIdx        int       `json:"loop_idx"`
	VecBits        int       `json:"vec_bits"`
	Unroll         int       `json:"unroll"`
	Prefetch       int       `json:"prefetch"`
	StreamPolicy   int       `json:"stream_policy"`
	Tile           int       `json:"tile"`
	InlinedCalls   bool      `json:"inlined_calls"`
	MultiVersioned bool      `json:"multi_versioned"`
	EffBody        string    `json:"eff_body"`
	SpillRate      string    `json:"spill_rate"`
	ISQ            string    `json:"isq"`
	GoodIS         bool      `json:"good_is"`
	GoodIO         bool      `json:"good_io"`
	Knobs          LoopKnobs `json:"knobs"`
	IPOPerturbed   bool      `json:"ipo_perturbed"`
}

// spillObject is ObjectModule's wire form.
type spillObject struct {
	Name       string         `json:"name"`
	LoopIdx    []int          `json:"module_loops"`
	IsBase     bool           `json:"is_base"`
	Knobs      flagspec.Knobs `json:"cv_knobs"`
	Loops      []spillLoop    `json:"loops"`
	TimeFactor string         `json:"time_factor"`
	CrashProne bool           `json:"crash_prone"`
}

// objectCodec is the objcache.SpillCodec for the object tier.
type objectCodec struct{}

func (objectCodec) Encode(key uint64, val any) ([]byte, bool) {
	obj, ok := val.(*ObjectModule)
	if !ok || obj.Knobs == nil {
		return nil, false
	}
	w := spillObject{
		Name:       obj.Module.Name,
		LoopIdx:    obj.Module.LoopIdx,
		IsBase:     obj.Module.IsBase,
		Knobs:      *obj.Knobs,
		Loops:      make([]spillLoop, len(obj.Loops)),
		TimeFactor: fsx.HexFloat(obj.NonLoop.TimeFactor),
		CrashProne: obj.CrashProne,
	}
	for i, lc := range obj.Loops {
		w.Loops[i] = spillLoop{
			LoopIdx:        lc.LoopIdx,
			VecBits:        lc.VecBits,
			Unroll:         lc.Unroll,
			Prefetch:       lc.Prefetch,
			StreamPolicy:   lc.StreamPolicy,
			Tile:           lc.Tile,
			InlinedCalls:   lc.InlinedCalls,
			MultiVersioned: lc.MultiVersioned,
			EffBody:        fsx.HexFloat(lc.EffBody),
			SpillRate:      fsx.HexFloat(lc.SpillRate),
			ISQ:            fsx.HexFloat(lc.ISQ),
			GoodIS:         lc.GoodIS,
			GoodIO:         lc.GoodIO,
			Knobs:          lc.Knobs,
			IPOPerturbed:   lc.IPOPerturbed,
		}
	}
	data, err := json.Marshal(&w)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (objectCodec) Decode(key uint64, data []byte) (any, bool) {
	var w spillObject
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, false
	}
	if len(w.Loops) != len(w.LoopIdx) {
		return nil, false
	}
	knobs := w.Knobs
	obj := &ObjectModule{
		Module:     ir.Module{Name: w.Name, LoopIdx: w.LoopIdx, IsBase: w.IsBase},
		Knobs:      &knobs,
		CrashProne: w.CrashProne,
	}
	if len(w.Loops) > 0 {
		obj.Loops = make([]LoopCode, len(w.Loops))
	}
	tf, err := fsx.ParseHexFloat(w.TimeFactor)
	if err != nil {
		return nil, false
	}
	obj.NonLoop.TimeFactor = tf
	for i, sl := range w.Loops {
		eff, err1 := fsx.ParseHexFloat(sl.EffBody)
		spr, err2 := fsx.ParseHexFloat(sl.SpillRate)
		isq, err3 := fsx.ParseHexFloat(sl.ISQ)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, false
		}
		obj.Loops[i] = LoopCode{
			LoopIdx:        sl.LoopIdx,
			VecBits:        sl.VecBits,
			Unroll:         sl.Unroll,
			Prefetch:       sl.Prefetch,
			StreamPolicy:   sl.StreamPolicy,
			Tile:           sl.Tile,
			InlinedCalls:   sl.InlinedCalls,
			MultiVersioned: sl.MultiVersioned,
			EffBody:        eff,
			SpillRate:      spr,
			ISQ:            isq,
			GoodIS:         sl.GoodIS,
			GoodIO:         sl.GoodIO,
			Knobs:          sl.Knobs,
			IPOPerturbed:   sl.IPOPerturbed,
		}
	}
	return obj, true
}

// AttachSpill adds an on-disk spill tier rooted at dir to the object
// tier: entries evicted by the LRU bound are written behind, SpillAll
// flushes the resident set, and object-tier misses read through before
// compiling. Attach before the cache sees concurrent traffic. Spilling
// is behaviour-invisible like every other cache layer: a spilled object
// decodes functionally identical to a fresh compile, so results are
// bit-identical spill-on vs spill-off — only restart warmth changes.
func (cc *CompileCache) AttachSpill(dir string) error {
	return cc.objects.AttachSpill(filepath.Join(dir, "objects"), objectCodec{})
}

// SpillAll flushes every resident object-tier entry to the spill
// directory — call it at daemon shutdown, after traffic has drained, so
// the next process starts warm. No-op without AttachSpill.
func (cc *CompileCache) SpillAll() {
	if cc == nil {
		return
	}
	cc.objects.SpillAll()
}
