// Package store is a disk-backed, content-addressed result store: values
// are byte blobs keyed by a caller-computed SHA-256 (the canonical hash of
// an experiment request — see mom.JobRequest.Key), written atomically and
// bounded by an LRU size budget.
//
// The store is an optimisation, never a source of truth: any damaged,
// truncated or unreadable entry reads as a miss (and is removed), so the
// worst failure mode is recomputing a result. Writes go through a
// temp-file + rename, so a crash can never leave a half-written value
// under a valid key.
package store

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metric"
)

// fileMagic heads every entry file; the trailing 1 is the on-disk format
// version (independent of the value schema, which is part of the key).
const fileMagic = "momstore 1"

// Stats is a snapshot of the store counters, a view of the series in
// Metrics.
type Stats struct {
	Hits      uint64 // Get found a valid entry
	Misses    uint64 // Get found nothing (or a corrupt entry)
	Puts      uint64 // values written by local computation
	Fills     uint64 // values written from a peer (Fill)
	Evictions uint64 // entries removed by the LRU bound
	Entries   int    // entries currently held
	Bytes     int64  // on-disk bytes currently held (headers included)
}

type entry struct {
	key  string
	size int64
	elem *list.Element // position in the recency list
}

// Store is a size-bounded content-addressed blob store rooted at one
// directory. It is safe for concurrent use.
type Store struct {
	dir string
	max int64 // payload-byte budget; <= 0 means unbounded

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recently used
	bytes   int64

	metrics                              metric.Set
	hits, misses, puts, fills, evictions *metric.Counter
}

// Open loads (or creates) a store rooted at dir, bounded to maxBytes on
// disk (<= 0 disables the bound). Existing entries are indexed
// without reading their payloads; their LRU order is rebuilt from file
// modification times, which Get refreshes, so recency survives restarts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		max:     maxBytes,
		entries: map[string]*entry{},
		lru:     list.New(),
	}
	s.hits = s.metrics.Counter("hits_total", "Lookups served from disk.")
	s.misses = s.metrics.Counter("misses_total", "Lookups that missed.")
	s.puts = s.metrics.Counter("puts_total", "Entries written by local computation.")
	s.fills = s.metrics.Counter("fills_total", "Entries written from a peer instead of computed locally.")
	s.evictions = s.metrics.Counter("evictions_total", "Entries evicted by the size bound.")
	s.metrics.Gauge("entries", "Entries currently stored.", func() int64 { return int64(s.Stats().Entries) })
	s.metrics.Gauge("bytes", "On-disk bytes currently stored.", func() int64 { return s.Stats().Bytes })
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var have []found
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		if !validKey(name) {
			if strings.HasPrefix(name, "tmp-") {
				os.Remove(path) // leftover from an interrupted Put
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent eviction; skip
		}
		have = append(have, found{key: name, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	// Oldest first, so the most recently touched entries end up at the
	// front of the LRU list.
	sort.Slice(have, func(i, j int) bool { return have[i].mtime.Before(have[j].mtime) })
	for _, f := range have {
		e := &entry{key: f.key, size: f.size}
		e.elem = s.lru.PushFront(e)
		s.entries[f.key] = e
		s.bytes += f.size
	}
	s.evictLocked()
	return s, nil
}

// validKey reports whether key is a lowercase hex SHA-256 digest.
func validKey(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil && strings.ToLower(key) == key
}

// path returns the entry file for a key, sharded by the first two hex
// digits so no single directory grows unbounded.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the stored value for key. Any failure — absent entry,
// truncated file, checksum mismatch — is a miss; damaged entries are
// removed so they are not re-verified on every lookup.
func (s *Store) Get(key string) ([]byte, bool) {
	if !s.lookup(key) {
		return nil, false
	}
	val, err := readEntry(s.path(key))
	if err != nil {
		s.removeDamaged(key)
		s.misses.Inc()
		return nil, false
	}
	s.hit(key)
	return val, true
}

// GetStream opens the stored value for key as a payload reader, so large
// values stream to their consumer instead of materialising. Only the header
// is verified here — magic, declared length — NOT the payload checksum:
// GetStream exists for payloads that carry their own internal framing
// checks (trace artifacts verify per-chunk CRCs and a program fingerprint
// as they decode). A consumer whose own verification fails must call
// Invalidate. The returned size is the declared payload length; the reader
// yields at most that many bytes and the caller owns Close.
func (s *Store) GetStream(key string) (io.ReadCloser, int64, bool) {
	if !s.lookup(key) {
		return nil, 0, false
	}
	e, _, err := openEntry(s.path(key))
	if err != nil {
		s.removeDamaged(key)
		s.misses.Inc()
		return nil, 0, false
	}
	s.hit(key)
	return e, e.n, true
}

// lookup reports whether key is indexed, moving it to the front of the
// recency list; an invalid or absent key counts a miss.
func (s *Store) lookup(key string) bool {
	if !validKey(key) {
		s.misses.Inc()
		return false
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.lru.MoveToFront(e.elem)
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Inc()
	}
	return ok
}

// hit counts a served entry and refreshes its mtime (best effort) so LRU
// order survives a restart.
func (s *Store) hit(key string) {
	now := time.Now()
	_ = os.Chtimes(s.path(key), now, now)
	s.hits.Inc()
}

// streamEntry couples a payload-bounded reader with its file handle.
type streamEntry struct {
	r io.Reader
	f *os.File
	n int64 // declared payload length
}

func (s *streamEntry) Read(p []byte) (int, error) { return s.r.Read(p) }
func (s *streamEntry) Close() error               { return s.f.Close() }

// Invalidate drops an entry whose payload a GetStream consumer found
// damaged by its own verification, so the corrupt bytes are not served
// again. Invalidating an absent key is a no-op.
func (s *Store) Invalidate(key string) {
	if !validKey(key) {
		return
	}
	s.removeDamaged(key)
}

// Put stores val under key, atomically (write to a temp file in the same
// directory, fsync, rename) and then evicts least-recently-used entries
// until the store fits its budget. Re-putting an existing key refreshes
// its value and recency.
func (s *Store) Put(key string, val []byte) error {
	if err := s.write(key, val); err != nil {
		return err
	}
	s.puts.Inc()
	return nil
}

// write is Put without the count.
func (s *Store) write(key string, val []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	sum := sha256.Sum256(val)
	if _, err := fmt.Fprintf(tmp, "%s %s %d\n", fileMagic, hex.EncodeToString(sum[:]), len(val)); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	info, err := os.Stat(tmp.Name())
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.bytes += info.Size() - e.size
		e.size = info.Size()
		s.lru.MoveToFront(e.elem)
	} else {
		e := &entry{key: key, size: info.Size()}
		e.elem = s.lru.PushFront(e)
		s.entries[key] = e
		s.bytes += info.Size()
	}
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// Fill stores a value obtained from a peer rather than computed locally.
// The write path is identical to Put — atomic, verified, LRU-bounded — it
// is counted separately so fill-on-miss traffic is visible, and a value
// already present is left untouched (the peer's copy of an entry this
// store already verified cannot be fresher: keys are content addresses).
func (s *Store) Fill(key string, val []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	if ok {
		return nil
	}
	if err := s.write(key, val); err != nil {
		return err
	}
	s.fills.Inc()
	return nil
}

// evictLocked drops least-recently-used entries until the byte budget is
// met. Caller holds s.mu.
func (s *Store) evictLocked() {
	if s.max <= 0 {
		return
	}
	for s.bytes > s.max {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.bytes -= e.size
		s.evictions.Inc()
		os.Remove(s.path(e.key))
	}
}

// removeDamaged drops a key whose file failed verification.
func (s *Store) removeDamaged(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.lru.Remove(e.elem)
		delete(s.entries, key)
		s.bytes -= e.size
	}
	os.Remove(s.path(key))
}

// Stats returns a snapshot of the counters and current occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.entries), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits: uint64(s.hits.Load()), Misses: uint64(s.misses.Load()),
		Puts: uint64(s.puts.Load()), Fills: uint64(s.fills.Load()),
		Evictions: uint64(s.evictions.Load()),
		Entries:   entries, Bytes: bytes,
	}
}

// Metrics returns the store's series: lookups, writes, evictions and
// occupancy.
func (s *Store) Metrics() *metric.Set { return &s.metrics }

// openEntry opens one entry file and parses its header line. The declared
// payload length must account for the rest of the file exactly, so a
// damaged header can neither promise more bytes than the file holds nor
// make a reader allocate them.
func openEntry(path string) (e *streamEntry, sum string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	br := bufio.NewReader(f)
	var n int64
	header, err := br.ReadString('\n')
	if err == nil {
		_, err = fmt.Sscanf(header, fileMagic+" %64s %d\n", &sum, &n)
	}
	var info os.FileInfo
	if err == nil {
		info, err = f.Stat()
	}
	if err == nil && (n < 0 || int64(len(header))+n != info.Size()) {
		err = fmt.Errorf("payload length %d does not match the file", n)
	}
	if err != nil {
		f.Close()
		return nil, "", fmt.Errorf("store: bad entry %s: %w", path, err)
	}
	return &streamEntry{r: io.LimitReader(br, n), f: f, n: n}, sum, nil
}

// readEntry reads and verifies one entry file: header line, declared
// length, payload checksum. Any mismatch is an error (the caller treats
// it as a miss).
func readEntry(path string) ([]byte, error) {
	e, sum, err := openEntry(path)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	val := make([]byte, e.n)
	if _, err := io.ReadFull(e, val); err != nil {
		return nil, fmt.Errorf("store: truncated %s: %w", path, err)
	}
	if got := sha256.Sum256(val); hex.EncodeToString(got[:]) != sum {
		return nil, fmt.Errorf("store: checksum mismatch in %s", path)
	}
	return val, nil
}
