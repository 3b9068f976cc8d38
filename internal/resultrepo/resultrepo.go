// Package resultrepo is the content-addressed, persistent tuning-results
// repository. It stores opaque JSON result bodies keyed the same way
// internal/objcache keys compiles — a 64-bit content hash of everything
// that determines a tuning outcome (program fingerprint × arch × flag
// space × search config) — so identical submissions from any number of
// clients resolve to one stored entry.
//
// The repository is a cache with a durability contract, not a database:
// writes go through the fsync-hardened atomic-commit path (a crash
// leaves the old entry or the new one, never a torn file), and loading
// is corruption-tolerant — a truncated, bit-flipped or otherwise
// unreadable entry is a counted miss, never an error and never a wrong
// result. Entries are fsx sealed records — versioned, keyed and
// checksummed over the body's exact bytes; Get verifies the seal before
// returning anything.
//
// Layout: <dir>/<kk>/<key16>.json, sharded by the key's top byte so no
// directory grows unboundedly. The in-memory index is built from file
// names at Open (content is validated lazily, at first Get), so opening
// a million-entry repository stats directories, not files.
package resultrepo

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"funcytuner/internal/fsx"
	"funcytuner/internal/xrand"
)

// Version is the on-disk entry format version; version 2 is the fsx
// sealed record. Entries with a different version, and entries in an
// older envelope, are counted corrupt misses (forward-compatible: a
// downgraded binary re-tunes rather than misreading a newer entry).
const Version = 2

// KeySpec enumerates everything that determines a tuning outcome. Two
// submissions with equal KeySpecs produce bit-identical Reports, so one
// stored entry serves both. Scheduling-only knobs (worker counts, cache
// sizes, gates, tracing, checkpoint paths) are deliberately absent:
// the determinism suite proves they cannot change a Report.
type KeySpec struct {
	// Mode distinguishes the tuning protocols: "tune", "adaptive",
	// "compare". Their Reports differ (which algorithms ran), so they
	// must not share entries.
	Mode string

	// Program identity: benchmark name plus the seed driving all
	// program-specific deterministic idiosyncrasies.
	Program     string
	ProgramSeed uint64

	// Workload identity.
	InputName  string
	InputSize  float64
	InputSteps int

	// Platform identity.
	Machine   string
	MachineID uint64

	// Flag-space flavor ("icc", "gcc").
	Flavor string

	// Search configuration.
	Seed         string
	Samples      int
	TopX         int
	Noisy        bool
	HotThreshold float64

	// Resilience policy — fault injection changes measured outcomes, so
	// it is part of the key.
	FaultCompileFail  float64
	FaultRunCrash     float64
	FaultTimeout      float64
	FaultFlake        float64
	MaxRetries        int
	BackoffSeconds    float64
	BackoffCapSeconds float64
	TimeoutBudget     float64

	// Early-stop rule (Mode "adaptive" only; zero otherwise).
	StopMinEvaluations int
	StopPatience       int
	StopMaxEvaluations int

	// Search technique ("bo", "ga"; empty for the default CFR — the
	// empty default keeps every pre-technique key unchanged).
	Technique string

	// WarmDigest fingerprints the warm-start seed set fed to the
	// technique (0 when warm-starting is off). Warm seeds change the
	// search trajectory, so runs with different seed sets must not share
	// an entry.
	WarmDigest uint64
}

// Key folds the spec into the repository's 64-bit content address. The
// stream is tagged per field group so field reordering or a new field
// cannot silently collide with an old layout.
func (ks KeySpec) Key() uint64 {
	var h xrand.Hasher
	add := func(vs ...uint64) {
		for _, v := range vs {
			h.Add(v)
		}
	}
	addF := func(fs ...float64) {
		for _, f := range fs {
			h.Add(math.Float64bits(f))
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	add(0x72657372) // "resr": domain tag, so repo keys never collide with compile keys
	add(xrand.HashString(ks.Mode))
	add(xrand.HashString(ks.Program), ks.ProgramSeed)
	add(xrand.HashString(ks.InputName), uint64(ks.InputSteps))
	addF(ks.InputSize)
	add(xrand.HashString(ks.Machine), ks.MachineID)
	add(xrand.HashString(ks.Flavor))
	add(xrand.HashString(ks.Seed), uint64(ks.Samples), uint64(ks.TopX), b2u(ks.Noisy))
	addF(ks.HotThreshold)
	addF(ks.FaultCompileFail, ks.FaultRunCrash, ks.FaultTimeout, ks.FaultFlake)
	add(uint64(ks.MaxRetries))
	addF(ks.BackoffSeconds, ks.BackoffCapSeconds, ks.TimeoutBudget)
	add(uint64(ks.StopMinEvaluations), uint64(ks.StopPatience), uint64(ks.StopMaxEvaluations))
	// Appended fields contribute only when non-default, so every key
	// minted before they existed is still reachable.
	if ks.Technique != "" {
		add(xrand.HashString("technique"), xrand.HashString(ks.Technique))
	}
	if ks.WarmDigest != 0 {
		add(xrand.HashString("warm-start"), ks.WarmDigest)
	}
	return h.Sum()
}

// Stats is a snapshot of repository activity since Open.
type Stats struct {
	// Entries is the current index size.
	Entries int
	// Hits and Misses count Get outcomes; Corrupt counts entries that
	// failed validation (each corrupt Get is also a miss).
	Hits, Misses, Corrupt int64
	// Puts counts successful stores.
	Puts int64
}

// Repo is a handle on one repository directory. Safe for concurrent
// use; multiple processes may share a directory (atomic renames keep
// readers consistent, and identical keys imply identical bodies).
type Repo struct {
	dir string

	mu      sync.Mutex
	index   map[uint64]struct{}
	hits    int64
	misses  int64
	corrupt int64
	puts    int64
}

// Open creates (if needed) and indexes the repository at dir. Malformed
// file names and leftover temp files are ignored; entry content is
// validated lazily at Get, so Open cost scales with entry count, not
// entry size.
func Open(dir string) (*Repo, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultrepo: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultrepo: %w", err)
	}
	r := &Repo{dir: dir, index: make(map[uint64]struct{})}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultrepo: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if len(name) != len("0123456789abcdef.json") || filepath.Ext(name) != ".json" {
				continue
			}
			key, err := strconv.ParseUint(name[:16], 16, 64)
			if err != nil || shard(key) != sh.Name() {
				continue
			}
			r.index[key] = struct{}{}
		}
	}
	return r, nil
}

// Dir returns the repository root directory.
func (r *Repo) Dir() string { return r.dir }

func shard(key uint64) string { return fmt.Sprintf("%02x", byte(key>>56)) }

func (r *Repo) path(key uint64) string {
	return filepath.Join(r.dir, shard(key), keyHex(key)+".json")
}

// Has reports whether the index holds key. A true answer can still turn
// into a Get miss if the entry proves corrupt.
func (r *Repo) Has(key uint64) bool {
	r.mu.Lock()
	_, ok := r.index[key]
	r.mu.Unlock()
	return ok
}

// Get returns the stored body for key, or (nil, false) on a miss. A
// torn, truncated or bit-flipped entry counts as corrupt, is dropped
// from the index (and best-effort removed from disk), and reads as a
// miss — corruption can cost a recompute, never an error or a wrong
// result.
func (r *Repo) Get(key uint64) ([]byte, bool) {
	r.mu.Lock()
	_, ok := r.index[key]
	r.mu.Unlock()
	if !ok {
		r.count(&r.misses)
		return nil, false
	}
	path := r.path(key)
	// Every failure mode — unreadable (data stays nil), not a sealed
	// record, wrong key, checksum mismatch, wrong version — is corrupt.
	data, _ := os.ReadFile(path)
	v, body, err := fsx.Unseal(data, keyHex(key))
	if err != nil || v != Version {
		r.drop(key, path)
		return nil, false
	}
	r.count(&r.hits)
	return body, true
}

func keyHex(key uint64) string { return fmt.Sprintf("%016x", key) }

// drop records a corrupt entry: counted, de-indexed, best-effort
// removed so the next writer starts clean.
func (r *Repo) drop(key uint64, path string) {
	r.mu.Lock()
	delete(r.index, key)
	r.corrupt++
	r.misses++
	r.mu.Unlock()
	os.Remove(path)
}

// Invalidate drops key as corrupt: counted, de-indexed, best-effort
// removed. Callers use it when a body passes the envelope checksum but
// fails a higher-level integrity check (e.g. a stored fingerprint that
// does not match the reconstructed result).
func (r *Repo) Invalidate(key uint64) {
	r.drop(key, r.path(key))
}

// Put stores body under key via the fsync-hardened atomic write path.
// body must be valid JSON; it is stored compacted.
// Re-putting an existing key rewrites it — identical keys imply
// identical bodies, so this is idempotent in correct use. Puts are
// serialized (they share the index lock): a results repository sees one
// Put per completed tuning run, so write contention is not a concern,
// and serializing keeps concurrent same-key writers off each other's
// staging files.
func (r *Repo) Put(key uint64, body []byte) error {
	data, err := fsx.Seal(Version, keyHex(key), body)
	if err != nil {
		return fmt.Errorf("resultrepo: key %016x: %w", key, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := fsx.WriteFileAtomic(r.path(key), data, 0o644); err != nil {
		return fmt.Errorf("resultrepo: %w", err)
	}
	r.index[key] = struct{}{}
	r.puts++
	return nil
}

// Keys returns every indexed key in ascending order. It snapshots the
// index under the lock; entries may still prove corrupt at Get. Used by
// warm-start scans, which read the whole repository looking for related
// prior runs.
func (r *Repo) Keys() []uint64 {
	r.mu.Lock()
	keys := make([]uint64, 0, len(r.index))
	for k := range r.index {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Len returns the current index size.
func (r *Repo) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}

// Stats snapshots repository activity.
func (r *Repo) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Entries: len(r.index),
		Hits:    r.hits,
		Misses:  r.misses,
		Corrupt: r.corrupt,
		Puts:    r.puts,
	}
}

func (r *Repo) count(p *int64) {
	r.mu.Lock()
	*p++
	r.mu.Unlock()
}
