package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func open(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := Open(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	val := []byte(`{"schema":1,"experiment":"fig5","rows":[]}` + "\n")
	if _, ok := s.Get(key("a")); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key("a"), val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key("a"))
	if !ok || string(got) != string(val) {
		t.Fatalf("got %q ok=%v, want the stored value", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put("not-a-hash", []byte("x")); err == nil {
		t.Fatal("Put accepted an invalid key")
	}
	if _, ok := s.Get("../escape"); ok {
		t.Fatal("Get accepted an invalid key")
	}
}

// TestReopenPersists: values survive process restarts, including their
// recency order.
func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	if err := s.Put(key("a"), []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key("b"), []byte("beta")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	got, ok := s2.Get(key("a"))
	if !ok || string(got) != "alpha" {
		t.Fatalf("after reopen: got %q ok=%v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 2 {
		t.Fatalf("after reopen: %d entries, want 2", st.Entries)
	}
}

// TestCorruptionIsAMiss: a truncated or tampered file must read as a miss
// (and be dropped), never as an error or a wrong value.
func TestCorruptionIsAMiss(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(path string) error
	}{
		{"truncated", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, b[:len(b)-3], 0o644)
		}},
		{"flipped-byte", func(p string) error {
			b, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			b[len(b)-1] ^= 0xff
			return os.WriteFile(p, b, 0o644)
		}},
		{"emptied", func(p string) error {
			return os.WriteFile(p, nil, 0o644)
		}},
		{"length-bomb", func(p string) error {
			// A header claiming 128 GiB over a 5-byte payload must read as
			// a miss, not as an allocation of the claimed size.
			return os.WriteFile(p, []byte(fmt.Sprintf("%s %064x %d\nbytes", fileMagic, 0, int64(1)<<37)), 0o644)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(t, dir, 0)
			k := key("victim")
			if err := s.Put(k, []byte("precious result bytes")); err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(filepath.Join(dir, k[:2], k)); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(k); ok {
				t.Fatalf("corrupt entry served as a hit: %q", v)
			}
			if st := s.Stats(); st.Entries != 0 {
				t.Fatalf("corrupt entry not dropped: %+v", st)
			}
			// The key is writable again afterwards.
			if err := s.Put(k, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(k); !ok || string(v) != "fresh" {
				t.Fatalf("re-put after corruption: got %q ok=%v", v, ok)
			}
		})
	}
}

// TestEvictionOrder: the size bound evicts least-recently-used first, and
// a Get refreshes recency.
func TestEvictionOrder(t *testing.T) {
	dir := t.TempDir()
	// Each entry is header (~77B) + 100B payload; budget fits ~3 entries.
	s := open(t, dir, 560)
	val := make([]byte, 100)
	keys := []string{key("k0"), key("k1"), key("k2")}
	for _, k := range keys {
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("setup: %+v, want 3 entries and no evictions", st)
	}
	// Touch k0 so k1 becomes the LRU entry, then overflow.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("k0 missing before overflow")
	}
	if err := s.Put(key("k3"), val); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("after overflow: %+v, want exactly 1 eviction", st)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("k1 survived: eviction was not least-recently-used")
	}
	for _, k := range []string{keys[0], keys[2], key("k3")} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("%s evicted out of order", k)
		}
	}
}

// TestOversizedValueEvicted: a single value larger than the whole budget
// is admitted and immediately evicted — the store never exceeds its bound.
func TestOversizedValueEvicted(t *testing.T) {
	s := open(t, t.TempDir(), 64)
	if err := s.Put(key("big"), make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Bytes > 64 || st.Entries != 0 {
		t.Fatalf("budget exceeded: %+v", st)
	}
}

// TestOpenCleansTempFiles: leftovers from an interrupted Put are removed
// and never indexed.
func TestOpenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(sub, "tmp-12345")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, 0)
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("temp file indexed: %+v", st)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file not cleaned: %v", err)
	}
}

// TestConcurrentAccess hammers one store from many goroutines; the race
// detector owns the assertions.
func TestConcurrentAccess(t *testing.T) {
	s := open(t, t.TempDir(), 2048)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprintf("k%d", (g+i)%16))
				if i%3 == 0 {
					_ = s.Put(k, []byte(fmt.Sprintf("value %d.%d", g, i)))
				} else {
					s.Get(k)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	s.Stats()
}

// TestFill: a peer-sourced write lands like a Put but is counted as a
// fill, and an already-present key is left untouched — content-addressed
// entries cannot go stale, so the first verified value wins.
func TestFill(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	val := []byte(`{"schema":1,"experiment":"fig5","rows":[]}` + "\n")
	if err := s.Fill(key("a"), val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key("a"))
	if !ok || string(got) != string(val) {
		t.Fatalf("got %q ok=%v, want the filled value", got, ok)
	}
	st := s.Stats()
	if st.Fills != 1 || st.Puts != 0 {
		t.Fatalf("stats %+v, want 1 fill / 0 puts", st)
	}
	// Filling over an existing entry is a no-op, not an overwrite.
	if err := s.Fill(key("a"), []byte("different")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(key("a")); string(got) != string(val) {
		t.Fatalf("second fill overwrote the entry: %q", got)
	}
	if st := s.Stats(); st.Fills != 1 {
		t.Fatalf("no-op fill counted (stats %+v)", st)
	}
	if err := s.Fill("not-a-key", val); err == nil {
		t.Fatal("invalid key accepted")
	}
}

// TestGetStream streams a payload back byte-identically, counts a hit, and
// treats header damage as a removing miss.
func TestGetStream(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	val := []byte("payload bytes that stream back")
	if _, _, ok := s.GetStream(key("a")); ok {
		t.Fatal("stream hit on empty store")
	}
	if err := s.Put(key("a"), val); err != nil {
		t.Fatal(err)
	}
	rc, n, ok := s.GetStream(key("a"))
	if !ok || n != int64(len(val)) {
		t.Fatalf("GetStream ok=%v n=%d, want %d payload bytes", ok, n, len(val))
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(got) != string(val) {
		t.Fatalf("streamed %q (err=%v), want %q", got, err, val)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}

	// Wreck the header; the stream must miss and drop the entry.
	path := s.path(key("a"))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.GetStream(key("a")); ok {
		t.Fatal("GetStream served a damaged header")
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatal("damaged entry still indexed")
	}
}

// TestInvalidate lets a streaming consumer reject a payload its own
// verification caught (GetStream does not checksum payloads).
func TestInvalidate(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put(key("a"), []byte("fine")); err != nil {
		t.Fatal(err)
	}
	s.Invalidate(key("a"))
	if st := s.Stats(); st.Entries != 0 {
		t.Fatal("Invalidate left the entry indexed")
	}
	if _, ok := s.Get(key("a")); ok {
		t.Fatal("Invalidate left the entry readable")
	}
	s.Invalidate(key("a")) // absent key: no-op
	s.Invalidate("bogus")  // invalid key: no-op
}

// FuzzEntryFile puts one value, overwrites its entry file with fuzzed
// bytes and reads it back. Get must return a miss or exactly the bytes
// Put wrote. GetStream verifies only the header, so it must return a miss
// or a reader of exactly its declared length, and agree with Get whenever
// Get verifies the payload. Neither may crash on what a header claims.
//
//	go test -run '^$' -fuzz '^FuzzEntryFile$' -fuzztime 20s ./internal/store/
func FuzzEntryFile(f *testing.F) {
	val := []byte("precious result bytes")
	k := key("victim")
	dir := f.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(k, val); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(s.path(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte(nil), good...), '!'))
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add([]byte(fmt.Sprintf("%s %064x %d\nbytes", fileMagic, 0, int64(1)<<37)))
	f.Add([]byte(fmt.Sprintf("%s %064x %d\nbytes", fileMagic, 0, -1)))
	f.Fuzz(func(t *testing.T, file []byte) {
		s := open(t, t.TempDir(), 0)
		if err := s.Put(k, val); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(k), file, 0o644); err != nil {
			t.Fatal(err)
		}
		var streamed []byte
		rc, n, streamOK := s.GetStream(k)
		if streamOK {
			streamed, err = io.ReadAll(rc)
			rc.Close()
			if err != nil || int64(len(streamed)) != n {
				t.Fatalf("GetStream yielded %d bytes (err %v), declared %d", len(streamed), err, n)
			}
		}
		got, ok := s.Get(k)
		if ok && !bytes.Equal(got, val) {
			t.Fatalf("Get served %q, Put wrote %q", got, val)
		}
		if ok && streamOK && !bytes.Equal(streamed, got) {
			t.Fatalf("GetStream yielded %q, Get verified %q", streamed, got)
		}
	})
}
