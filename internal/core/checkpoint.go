package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"

	"funcytuner/internal/fsx"
)

// Checkpoint/resume for long tuning runs. The paper's real campaigns run
// 1.5 days to a week (§4.3); a killed process must not lose the whole
// Collection. The checkpoint persists every completed sample of the
// collection phase and of CFR's search phase, the quarantine set, and the
// cumulative cost of the persisted work. Because every evaluation is a
// pure function of (seed, sample index), a resumed session recomputes
// only the missing samples and produces a result bit-identical to an
// uninterrupted run.
//
// Measured times are serialized as strconv hexadecimal float strings:
// exact round-trip, including the ±Inf values that crashed variants
// legitimately produce (plain JSON numbers cannot encode Inf).

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

// DefaultCheckpointEvery is the default flush cadence (completed
// evaluations between checkpoint writes).
const DefaultCheckpointEvery = 25

// Checkpoint is the JSON-portable partial state of a tuning run.
type Checkpoint struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	Machine string `json:"machine"`
	Flavor  string `json:"flavor"`
	Seed    string `json:"seed"`
	Samples int    `json:"samples"`
	TopX    int    `json:"topx"`
	Modules int    `json:"modules"`

	// Technique tags the search strategy whose progress CFRDone/CFRTimes
	// record ("" = CFR, the default — kept empty so pre-technique
	// checkpoints stay byte-identical). Resuming under a different
	// technique is rejected: the same sample indices would map to
	// different assemblies.
	Technique string `json:"technique,omitempty"`

	// CollectDone lists the completed collection sample indices. Times
	// is [modules][samples] and Totals [samples]; entries for samples
	// not in CollectDone are empty strings.
	CollectDone []int      `json:"collect_done"`
	Times       [][]string `json:"times"`
	Totals      []string   `json:"totals"`

	// CFRDone / CFRTimes mirror the search phase.
	CFRDone  []int    `json:"cfr_done"`
	CFRTimes []string `json:"cfr_times"`

	// Quarantine holds poison CV fingerprints as hexadecimal strings
	// (JSON numbers cannot carry full uint64 precision).
	Quarantine []string `json:"quarantine"`

	// Cost is the cumulative cost of exactly the persisted samples.
	Cost CostSnapshot `json:"cost"`
}

// Validate checks the checkpoint's internal consistency (shape, index
// ranges, parsable times, non-negative cost). Compatibility with a
// specific session is checked separately at attach time.
func (ck *Checkpoint) Validate() error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("core: unsupported checkpoint version %d (want %d)", ck.Version, CheckpointVersion)
	}
	if ck.Samples < 1 || ck.TopX < 1 || ck.TopX > ck.Samples {
		return fmt.Errorf("core: checkpoint has implausible budget (samples=%d, topx=%d)", ck.Samples, ck.TopX)
	}
	if ck.Modules < 1 {
		return fmt.Errorf("core: checkpoint has %d modules", ck.Modules)
	}
	if len(ck.Times) != ck.Modules {
		return fmt.Errorf("core: checkpoint has %d time rows for %d modules", len(ck.Times), ck.Modules)
	}
	for mi, row := range ck.Times {
		if len(row) != ck.Samples {
			return fmt.Errorf("core: checkpoint module %d has %d entries for %d samples", mi, len(row), ck.Samples)
		}
	}
	if len(ck.Totals) != ck.Samples || len(ck.CFRTimes) != ck.Samples {
		return fmt.Errorf("core: checkpoint totals/cfr arrays not sized to %d samples", ck.Samples)
	}
	checkDone := func(name string, done []int, filled []string) error {
		seen := make(map[int]bool, len(done))
		for _, k := range done {
			if k < 0 || k >= ck.Samples {
				return fmt.Errorf("core: checkpoint %s index %d out of range", name, k)
			}
			if seen[k] {
				return fmt.Errorf("core: checkpoint %s index %d duplicated", name, k)
			}
			seen[k] = true
			if _, err := fsx.ParseHexFloat(filled[k]); err != nil {
				return fmt.Errorf("core: bad checkpoint %s time %d: %w", name, k, err)
			}
		}
		return nil
	}
	if err := checkDone("collect", ck.CollectDone, ck.Totals); err != nil {
		return err
	}
	for _, k := range ck.CollectDone {
		for mi := range ck.Times {
			if _, err := fsx.ParseHexFloat(ck.Times[mi][k]); err != nil {
				return fmt.Errorf("core: bad checkpoint module %d time %d: %w", mi, k, err)
			}
		}
	}
	if err := checkDone("cfr", ck.CFRDone, ck.CFRTimes); err != nil {
		return err
	}
	for _, q := range ck.Quarantine {
		if _, err := strconv.ParseUint(q, 16, 64); err != nil {
			return fmt.Errorf("core: bad quarantine key %q", q)
		}
	}
	return ck.Cost.Validate()
}

// DecodeCheckpoint parses and validates a checkpoint document.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return &ck, nil
}

// LoadCheckpointFile reads and validates a checkpoint from disk.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}

// Checkpointer persists tuning progress to a file. It is safe for
// concurrent use by the session's evaluation workers: marks are applied
// under a lock and flushed atomically (write-temp-then-rename) every
// `every` completed evaluations and at phase boundaries.
type Checkpointer struct {
	mu      sync.Mutex
	path    string
	every   int
	pending int
	ck      *Checkpoint
}

// NewCheckpointer writes checkpoints to path every `every` completed
// evaluations (<= 0 means DefaultCheckpointEvery). The checkpoint state
// is initialized when the checkpointer is attached to a session.
func NewCheckpointer(path string, every int) *Checkpointer {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpointer{path: path, every: every}
}

// Resume primes the checkpointer with previously persisted state. It must
// be called before AttachCheckpointer.
func (c *Checkpointer) Resume(ck *Checkpoint) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	c.ck = ck
	c.mu.Unlock()
	return nil
}

// AttachCheckpointer binds a checkpointer to the session. If the
// checkpointer carries resumed state, it is validated against the session
// identity (program, machine, flag-space flavor, seed, budget, module
// count) and the persisted quarantine set and cost are restored; a
// mismatch is rejected rather than silently producing a hybrid run.
func (s *Session) AttachCheckpointer(c *Checkpointer) error {
	if c == nil {
		s.ckpt = nil
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ck == nil {
		c.ck = &Checkpoint{
			Version:   CheckpointVersion,
			Program:   s.Prog.Name,
			Machine:   s.Machine.Name,
			Flavor:    s.Toolchain.Space.Flavor.String(),
			Seed:      s.Config.Seed,
			Samples:   s.Config.Samples,
			TopX:      s.Config.TopX,
			Modules:   len(s.Part.Modules),
			Technique: TechniqueTag(s.Config.Technique),
			Totals:    make([]string, s.Config.Samples),
			CFRTimes:  make([]string, s.Config.Samples),
		}
		c.ck.Times = make([][]string, len(s.Part.Modules))
		for mi := range c.ck.Times {
			c.ck.Times[mi] = make([]string, s.Config.Samples)
		}
	} else {
		ck := c.ck
		mismatch := func(field, got, want string) error {
			return fmt.Errorf("core: checkpoint %s %q does not match session %q", field, got, want)
		}
		if ck.Program != s.Prog.Name {
			return mismatch("program", ck.Program, s.Prog.Name)
		}
		if ck.Machine != s.Machine.Name {
			return mismatch("machine", ck.Machine, s.Machine.Name)
		}
		if flavor := s.Toolchain.Space.Flavor.String(); ck.Flavor != flavor {
			return mismatch("flavor", ck.Flavor, flavor)
		}
		if ck.Seed != s.Config.Seed {
			return mismatch("seed", ck.Seed, s.Config.Seed)
		}
		if tag := TechniqueTag(s.Config.Technique); ck.Technique != tag {
			return mismatch("technique", ck.Technique, tag)
		}
		if ck.Samples != s.Config.Samples || ck.TopX != s.Config.TopX {
			return fmt.Errorf("core: checkpoint budget (samples=%d, topx=%d) does not match session (samples=%d, topx=%d)",
				ck.Samples, ck.TopX, s.Config.Samples, s.Config.TopX)
		}
		if ck.Modules != len(s.Part.Modules) {
			return fmt.Errorf("core: checkpoint has %d modules, session has %d", ck.Modules, len(s.Part.Modules))
		}
		keys := make([]uint64, 0, len(ck.Quarantine))
		for _, q := range ck.Quarantine {
			v, err := strconv.ParseUint(q, 16, 64)
			if err != nil {
				return fmt.Errorf("core: bad quarantine key %q", q)
			}
			keys = append(keys, v)
		}
		s.restoreQuarantine(keys)
		s.Cost.restore(ck.Cost)
	}
	s.ckpt = c
	return nil
}

// restoreCollect fills completed collection samples into col and done.
func (c *Checkpointer) restoreCollect(col *Collection, done []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.ck.CollectDone {
		done[k] = true
		col.Totals[k], _ = fsx.ParseHexFloat(c.ck.Totals[k])
		for mi := range col.Times {
			col.Times[mi][k], _ = fsx.ParseHexFloat(c.ck.Times[mi][k])
		}
	}
}

// restoreCFR fills completed search-phase samples into times and done.
func (c *Checkpointer) restoreCFR(times []float64, done []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.ck.CFRDone {
		done[k] = true
		times[k], _ = fsx.ParseHexFloat(c.ck.CFRTimes[k])
	}
}

// markCollect records one completed collection sample with its cost and
// the session's current quarantine set, flushing on cadence.
func (c *Checkpointer) markCollect(s *Session, k int, per []float64, total float64, ec evalCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ck.CollectDone = append(c.ck.CollectDone, k)
	c.ck.Totals[k] = fsx.HexFloat(total)
	for mi := range per {
		c.ck.Times[mi][k] = fsx.HexFloat(per[mi])
	}
	c.markedLocked(s, ec)
}

// markCFR records one completed search-phase sample.
func (c *Checkpointer) markCFR(s *Session, k int, t float64, ec evalCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ck.CFRDone = append(c.ck.CFRDone, k)
	c.ck.CFRTimes[k] = fsx.HexFloat(t)
	c.markedLocked(s, ec)
}

func (c *Checkpointer) markedLocked(s *Session, ec evalCost) {
	c.ck.Cost = c.ck.Cost.addEval(ec)
	c.syncQuarantineLocked(s)
	c.pending++
	if c.pending >= c.every {
		c.flushLocked() // best effort on cadence; Flush reports errors
	}
}

// syncQuarantineLocked snapshots the session's quarantine set. The set may
// momentarily include CVs from evaluations not yet marked complete; that
// is harmless, because quarantine membership is deterministic per CV and
// a resumed run re-derives the same entries when it re-evaluates them.
func (c *Checkpointer) syncQuarantineLocked(s *Session) {
	keys := s.Quarantined()
	qs := make([]string, len(keys))
	for i, k := range keys {
		qs[i] = strconv.FormatUint(k, 16)
	}
	c.ck.Quarantine = qs
}

// Flush writes the checkpoint to disk atomically.
func (c *Checkpointer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

func (c *Checkpointer) flushLocked() error {
	if c.ck == nil {
		return nil
	}
	c.pending = 0
	sort.Ints(c.ck.CollectDone)
	sort.Ints(c.ck.CFRDone)
	data, err := json.MarshalIndent(c.ck, "", "  ")
	if err != nil {
		return err
	}
	return atomicWriteFile(c.path, data, 0o644)
}

// atomicWriteFile commits data to path with full crash durability:
// write-temp, fsync, rename, fsync the parent directory. Shared with
// the results repository via internal/fsx.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	return fsx.WriteFileAtomic(path, data, perm)
}
