package resultrepo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"funcytuner/internal/fsx"
	"funcytuner/internal/xrand"
)

func testSpec() KeySpec {
	return KeySpec{
		Mode:         "tune",
		Program:      "CL",
		ProgramSeed:  42,
		InputName:    "train",
		InputSize:    100,
		InputSteps:   50,
		Machine:      "broadwell",
		MachineID:    3,
		Flavor:       "icc",
		Seed:         "test-seed",
		Samples:      1000,
		TopX:         50,
		Noisy:        true,
		HotThreshold: 0.01,
	}
}

func TestKeySpecDiscriminates(t *testing.T) {
	base := testSpec()
	if base.Key() != testSpec().Key() {
		t.Fatal("equal specs produced different keys")
	}
	variants := map[string]KeySpec{}
	v := base
	v.Mode = "adaptive"
	variants["mode"] = v
	v = base
	v.Program = "AMG"
	variants["program"] = v
	v = base
	v.ProgramSeed = 43
	variants["program-seed"] = v
	v = base
	v.InputSize = 200
	variants["input-size"] = v
	v = base
	v.Machine = "opteron"
	variants["machine"] = v
	v = base
	v.Flavor = "gcc"
	variants["flavor"] = v
	v = base
	v.Seed = "other-seed"
	variants["seed"] = v
	v = base
	v.Samples = 2000
	variants["samples"] = v
	v = base
	v.TopX = 10
	variants["topx"] = v
	v = base
	v.Noisy = false
	variants["noisy"] = v
	v = base
	v.FaultFlake = 0.04
	variants["faults"] = v
	v = base
	v.TimeoutBudget = 60
	variants["timeout"] = v
	v = base
	v.StopPatience = 150
	variants["stop-rule"] = v
	keys := map[uint64]string{base.Key(): "base"}
	for name, spec := range variants {
		k := spec.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		keys[k] = name
	}
}

func TestPutGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	body := []byte(`{"fingerprint":"00deadbeef001234","speedup":"0x1.8p+00"}`)
	if _, ok := r.Get(key); ok {
		t.Fatal("hit on empty repo")
	}
	if err := r.Put(key, body); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, %v; want stored body", got, ok)
	}

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 1 {
		t.Fatalf("reopened index has %d entries, want 1", r2.Len())
	}
	got, ok = r2.Get(key)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("reopened Get = %q, %v; want stored body", got, ok)
	}
	st := r2.Stats()
	if st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 0 corrupt", st)
	}
}

// Bodies holding characters json.Marshal would HTML-escape are stored
// byte-for-byte and served back, never turned into a corrupt miss.
func TestPutGetKeepsEscapableBodies(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range []string{`{"x":"<a>"}`, `{"x":"a&b"}`, "{\"x\":\"a\u2028b\u2029\"}"} {
		key := uint64(i + 1)
		if err := r.Put(key, []byte(body)); err != nil {
			t.Fatal(err)
		}
		got, ok := r.Get(key)
		if !ok || string(got) != body {
			t.Errorf("Get(%q) = %q, %v", body, got, ok)
		}
	}
	if st := r.Stats(); st.Corrupt != 0 || st.Hits != 3 {
		t.Fatalf("stats = %+v, want 3 hits, 0 corrupt", st)
	}
}

func TestPutRejectsInvalidJSON(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(1, []byte("not json")); err == nil {
		t.Fatal("Put accepted invalid JSON")
	}
}

// TestCorruptionTolerance is the satellite table test: every way an
// entry can be damaged on disk — truncation, bit flips, garbage,
// version/key mismatches, a writer crash mid-rename — must read as a
// counted corrupt miss, never an error and never a wrong body.
func TestCorruptionTolerance(t *testing.T) {
	key := testSpec().Key()
	body := []byte(`{"fingerprint":"00deadbeef001234","best":"0x1.91eb851eb851fp+01"}`)

	cases := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		corrupt bool // expect the corrupt counter to move
	}{
		{"truncated-half", func(t *testing.T, path string) {
			data := mustRead(t, path)
			mustWrite(t, path, data[:len(data)/2])
		}, true},
		{"truncated-empty", func(t *testing.T, path string) {
			mustWrite(t, path, nil)
		}, true},
		{"flipped-byte-in-body", func(t *testing.T, path string) {
			data := mustRead(t, path)
			i := bytes.Index(data, []byte("deadbeef"))
			if i < 0 {
				t.Fatal("body marker not found")
			}
			data[i] ^= 0x01
			mustWrite(t, path, data)
		}, true},
		{"flipped-byte-in-checksum", func(t *testing.T, path string) {
			data := mustRead(t, path)
			i := bytes.Index(data, []byte(`"sum":"`))
			if i < 0 {
				t.Fatal("checksum marker not found")
			}
			i += len(`"sum":"`)
			if data[i] == '0' {
				data[i] = '1'
			} else {
				data[i] = '0'
			}
			mustWrite(t, path, data)
		}, true},
		{"garbage", func(t *testing.T, path string) {
			mustWrite(t, path, []byte("\x00\xff\x00\xffnot even json"))
		}, true},
		{"wrong-version", func(t *testing.T, path string) {
			reseal(t, path, Version+1, fmt.Sprintf("%016x", key))
		}, true},
		{"wrong-key", func(t *testing.T, path string) {
			reseal(t, path, Version, "0000000000000001")
		}, true},
		{"old-envelope", func(t *testing.T, path string) {
			// The version-1 envelope, intact but in the old field names.
			old := fmt.Sprintf(`{"version":1,"key":"%016x","checksum":"%016x","body":%s}`,
				key, xrand.HashString(string(body)), body)
			mustWrite(t, path, []byte(old))
		}, true},
		{"deleted-file", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"crash-mid-rename", func(t *testing.T, path string) {
			// A writer that died between writing the temp file and the
			// rename leaves <path>.tmp next to a deleted destination.
			data := mustRead(t, path)
			mustWrite(t, path+".tmp", data[:len(data)-7])
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Put(key, body); err != nil {
				t.Fatal(err)
			}
			tc.mangle(t, r.path(key))

			got, ok := r.Get(key)
			if ok {
				t.Fatalf("Get returned %q for a damaged entry", got)
			}
			st := r.Stats()
			if tc.corrupt && st.Corrupt == 0 {
				t.Fatalf("corrupt counter did not move: %+v", st)
			}
			if st.Misses == 0 {
				t.Fatalf("damaged entry not counted as a miss: %+v", st)
			}
			// A second Get is a clean (non-corrupt) miss: the entry was
			// de-indexed.
			if _, ok := r.Get(key); ok {
				t.Fatal("damaged entry resurrected")
			}
			if st2 := r.Stats(); st2.Corrupt != st.Corrupt {
				t.Fatalf("corrupt counter moved again on a de-indexed key: %+v", st2)
			}

			// A fresh Open of the damaged directory must also degrade to
			// a miss, then accept a clean re-Put.
			r2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := r2.Get(key); ok {
				t.Fatalf("reopened Get returned %q for a damaged entry", got)
			}
			if err := r2.Put(key, body); err != nil {
				t.Fatal(err)
			}
			got, ok = r2.Get(key)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("re-Put after damage: Get = %q, %v", got, ok)
			}
		})
	}
}

func TestOpenIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testSpec().Key()
	if err := r.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	sh := filepath.Join(dir, shard(key))
	mustWrite(t, filepath.Join(sh, "README"), []byte("junk"))
	mustWrite(t, filepath.Join(sh, "0000000000000000.json.tmp"), []byte("torn"))
	mustWrite(t, filepath.Join(dir, "stray.json"), []byte("{}"))
	// A well-formed name filed under the wrong shard directory.
	wrong := filepath.Join(dir, "zz")
	if err := os.MkdirAll(wrong, 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(wrong, "0000000000000abc.json"), []byte("{}"))

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 1 {
		t.Fatalf("index has %d entries, want 1 (junk indexed)", r2.Len())
	}
}

func TestConcurrentPutGet(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := uint64(i % keys)
				body := []byte(fmt.Sprintf(`{"k":%d}`, k))
				if err := r.Put(k, body); err != nil {
					t.Error(err)
					return
				}
				if got, ok := r.Get(k); ok && !bytes.Equal(got, body) {
					t.Errorf("key %d: got %q want %q", k, got, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent use produced corrupt entries: %+v", st)
	}
}

// FuzzDecode drives Get with arbitrary entry bytes on disk: it must
// never panic, and it may return a body only when the file is exactly
// the record Put would write for that body — sealed under this key and
// the current Version. Anything else is a counted corrupt miss.
func FuzzDecode(f *testing.F) {
	key := testSpec().Key()
	seed, err := fsx.Seal(Version, fmt.Sprintf("%016x", key), []byte(`{"x":1}`))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(""))
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Put(key, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		mustWrite(t, r.path(key), data)
		body, ok := r.Get(key)
		if !ok {
			if st := r.Stats(); st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("refused entry not counted as one corrupt miss: %+v", st)
			}
			return
		}
		resealed, err := fsx.Seal(Version, fmt.Sprintf("%016x", key), body)
		if err != nil || !bytes.Equal(resealed, data) {
			t.Fatalf("Get served %q from bytes Put would not write: %q (%v)", body, data, err)
		}
	})
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reseal rewrites the entry at path as an intact record under another
// version or key, so only that field can make Get refuse it.
func reseal(t *testing.T, path string, version int, key string) {
	t.Helper()
	_, body, err := fsx.Unseal(mustRead(t, path), filepath.Base(path[:len(path)-len(".json")]))
	if err != nil {
		t.Fatal(err)
	}
	data, err := fsx.Seal(version, key, body)
	if err != nil {
		t.Fatal(err)
	}
	mustWrite(t, path, data)
}
