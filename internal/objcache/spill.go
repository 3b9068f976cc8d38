package objcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"funcytuner/internal/fsx"
)

// The spill tier persists evicted and resident entries to disk so a
// restarted process starts warm instead of cold. It is strictly a
// third tier under the in-memory LRU:
//
//   - write-behind: entries evicted by the LRU bound are encoded and
//     committed to <dir>/<kk>/<key16>.json after the shard lock is
//     released; SpillAll does the same for every resident entry (the
//     shutdown flush).
//   - read-through: a Get that misses memory probes the spill file
//     before running compute. The probe happens after singleflight
//     registration, so concurrent Gets of one key do one disk read.
//
// Values are opaque to the cache, so spilling needs a caller-provided
// SpillCodec. A codec may decline values that cannot round-trip
// (Encode returns false) — those entries simply stay memory-only.
//
// Durability is deliberately weaker than the results repository's:
// files are committed by rename without fsync (readers never see a
// partial write from a live process), and any torn, truncated or
// bit-flipped file reads as a counted miss that falls through to
// compute. Because compilation is a pure function of the key, a lost
// or corrupt spill entry can only cost work, never change a result —
// the spill bit-identity tests prove exactly that.

// SpillCodec serializes cache values for the spill tier. Encode
// returns the value's portable form (must be valid JSON) or ok=false
// for values that should not be spilled; Decode inverts it. Decode
// must return a value functionally identical to the encoded one.
type SpillCodec interface {
	Encode(key uint64, val any) (data []byte, ok bool)
	Decode(key uint64, data []byte) (val any, ok bool)
}

// spillVersion is the on-disk spill entry format version; version 2 is
// an fsx sealed record whose body is a spillBody.
const spillVersion = 2

// spillBody is a spill file's sealed payload: the codec's bytes and the
// work they save. The seal is checked before the codec sees anything.
type spillBody struct {
	Work int64           `json:"work"`
	Val  json.RawMessage `json:"val"`
}

type spillState struct {
	dir   string
	codec SpillCodec
	// wmu serializes write-behind commits so concurrent evictions of
	// the same key (or SpillAll racing an eviction) never collide on a
	// staging file. Writes are off the hot path — eviction already
	// dropped the shard lock — so serializing them is cheap.
	wmu sync.Mutex

	hits, writes, corrupt, errs atomic.Int64
}

// spillItem is one evicted entry captured under the shard lock for
// write-behind after unlock.
type spillItem struct {
	key  uint64
	val  any
	work int64
}

// AttachSpill adds an on-disk spill tier rooted at dir, using codec to
// serialize values. Attach before the cache sees concurrent traffic
// (like SetObserver, it is a plain field). The directory may already
// hold spill files from a previous process — that is the point.
func (c *Cache) AttachSpill(dir string, codec SpillCodec) error {
	if dir == "" || codec == nil {
		return fmt.Errorf("objcache: AttachSpill needs a directory and a codec")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("objcache: %w", err)
	}
	c.spill = &spillState{dir: dir, codec: codec}
	return nil
}

func (sp *spillState) path(key uint64) string {
	return filepath.Join(sp.dir, fmt.Sprintf("%02x", byte(key>>56)), spillKey(key)+".json")
}

func spillKey(key uint64) string { return fmt.Sprintf("%016x", key) }

// load probes the spill tier for key. A missing file is a silent miss;
// an unreadable or damaged file is a counted corrupt miss and is
// removed so the next eviction rewrites it cleanly.
func (c *Cache) spillLoad(key uint64) (val any, work int64, ok bool) {
	sp := c.spill
	if sp == nil {
		return nil, 0, false
	}
	path := sp.path(key)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false
	}
	// A read error leaves data nil, which Unseal refuses like damage.
	var b spillBody
	if v, body, err := fsx.Unseal(data, spillKey(key)); err == nil && v == spillVersion &&
		json.Unmarshal(body, &b) == nil && b.Work >= 0 && len(b.Val) > 0 {
		if val, ok := sp.codec.Decode(key, b.Val); ok {
			sp.hits.Add(1)
			return val, b.Work, true
		}
	}
	sp.corrupt.Add(1)
	os.Remove(path)
	return nil, 0, false
}

// spillWrite commits one entry, best-effort: encode failures mean the
// value stays memory-only, write failures are counted and dropped (a
// spill tier must never fail a Get).
func (c *Cache) spillWrite(it spillItem) {
	sp := c.spill
	data, ok := sp.codec.Encode(it.key, it.val)
	if !ok {
		return
	}
	body, err := json.Marshal(spillBody{Work: it.work, Val: data})
	if err != nil {
		sp.errs.Add(1)
		return
	}
	out, err := fsx.Seal(spillVersion, spillKey(it.key), body)
	if err != nil {
		sp.errs.Add(1)
		return
	}
	sp.wmu.Lock()
	err = fsx.WriteFileAtomicFast(sp.path(it.key), out, 0o644)
	sp.wmu.Unlock()
	if err != nil {
		sp.errs.Add(1)
		return
	}
	sp.writes.Add(1)
}

// writeBehind spills entries the LRU just evicted. Called without the
// shard lock.
func (c *Cache) writeBehind(evicted []spillItem) {
	if c.spill == nil {
		return
	}
	for _, it := range evicted {
		c.spillWrite(it)
	}
}

// SpillAll writes every resident entry to the spill tier — the
// shutdown flush that lets the next process start warm. No-op without
// an attached spill. Entries added concurrently with the walk may or
// may not be included; call it after traffic has drained.
func (c *Cache) SpillAll() {
	if c.spill == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		items := make([]spillItem, 0, len(sh.items))
		for k, e := range sh.items {
			items = append(items, spillItem{key: k, val: e.val, work: e.work})
		}
		sh.mu.Unlock()
		for _, it := range items {
			c.spillWrite(it)
		}
	}
}
