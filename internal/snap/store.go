package snap

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is a content-addressed on-disk slot store: one file per slot in
// one directory. It backs both the warmup snapshot store — slots keyed
// by (workload, warmup-hash, interval length, interval boundary), built
// with Key, accessed with Save/Load — and the harness result cache, whose
// manifest slots go through Write/Read under their own file names.
// Writes are atomic (temp file + fsync + rename), a slot that fails its
// check on load is deleted so one torn write cannot poison later runs,
// and every failure degrades to a miss — the store is an accelerator,
// never a correctness dependency (callers recompute on any miss).
type Store struct {
	dir      string
	maxBytes int64 // 0 = unbounded

	// mu serializes eviction scans; loads and saves of distinct keys are
	// otherwise free to race (atomic renames keep slots whole).
	mu sync.Mutex
}

// ext is the snapshot slot filename extension; eviction only ever
// touches these.
const ext = ".snap"

// NewStore opens (creating if needed) a slot store in dir whose
// snapshot slots are capped at maxBytes (0 = unbounded). A nil store is
// returned when dir is empty, and every method on a nil store is a safe
// no-op miss — callers hold snapshots in memory for the current sweep
// only.
func NewStore(dir string, maxBytes int64) *Store {
	if dir == "" {
		return nil
	}
	return &Store{dir: dir, maxBytes: maxBytes}
}

// Stem is the <workload>-<hash12> stem every slot name starts with:
// snapshot keys (Key) and the result cache's manifest names
// (harness.CacheName) are both built on it. It returns "" when the
// workload name cannot be a safe file stem or the hash is shorter than
// 12 characters.
func Stem(workload, hash string) string {
	if strings.ContainsAny(workload, "/\\") || len(hash) < 12 {
		return ""
	}
	return workload + "-" + hash[:12]
}

// Key builds the canonical slot key for a workload's warmup state at an
// interval boundary. The warmup hash sub-addresses the configuration
// (every knob except the work budget), so sweep configs that share it
// resolve to the same slots. The interval length is part of the key
// because the machine state at boundary b is the state after
// b*intervalUops committed uops with a stop at every multiple of
// intervalUops — runs sweeping different interval lengths (e.g.
// budget-derived ones) must never share slots. Returns "" when Stem
// rejects its inputs.
func Key(workload, warmupHash string, intervalUops uint64, boundary int) string {
	stem := Stem(workload, warmupHash)
	if stem == "" {
		return ""
	}
	return fmt.Sprintf("%s-i%d-b%d", stem, intervalUops, boundary)
}

// path maps a slot file name into the store directory, or "" when the
// store is nil or the name could escape it.
func (s *Store) path(name string) string {
	if s == nil || name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\") {
		return ""
	}
	return filepath.Join(s.dir, name)
}

// Load returns the verified snapshot stored under key, or nil on any
// miss. A slot that fails framing verification (truncated write, bit
// rot, format-version skew) is deleted — self-healing, so the next
// warmup pass rewrites it.
func (s *Store) Load(key string) []byte {
	return s.Read(slotName(key), Verify)
}

// Save stores a snapshot under key atomically and then enforces the
// size cap, evicting least-recently-used snapshot slots. It reports
// whether the slot was written and how many slots eviction removed;
// failures are swallowed (written=false).
func (s *Store) Save(key string, data []byte) (written bool, evicted int) {
	name := slotName(key)
	if s.Write(name, data) != nil {
		return false, 0
	}
	return true, s.evict(s.path(name))
}

// slotName is the file name of snapshot key, or "" for the empty key
// Key returns when it rejects its inputs.
func slotName(key string) string {
	if key == "" {
		return ""
	}
	return key + ext
}

// Read returns the contents of slot name once check accepts them, or
// nil on any miss. A slot that exists but that check rejects is deleted.
// A hit refreshes the slot's mtime, which is the LRU clock eviction
// orders by.
func (s *Store) Read(name string, check func([]byte) error) []byte {
	path := s.path(name)
	if path == "" {
		return nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	if err := check(data); err != nil {
		os.Remove(path)
		return nil
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	return data
}

// Write stores data as slot name atomically: a temp file in the store
// directory is written, fsynced and renamed over the slot, so a
// concurrent reader never observes a torn slot and a crash right after
// the rename cannot leave a durable-looking slot with unflushed content.
func (s *Store) Write(name string, data []byte) error {
	path := s.path(name)
	if path == "" {
		return fmt.Errorf("snap: no store, or unsafe slot name %q", name)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".slot-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644) // temp files start 0600; slots are artifacts others read
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// evict removes least-recently-used slots until the store fits under
// maxBytes again. The just-written slot is exempt: a snapshot must
// survive at least until its own sweep reads it back, even when it
// alone exceeds the cap.
func (s *Store) evict(justWrote string) int {
	if s.maxBytes <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	type slot struct {
		path  string
		size  int64
		mtime time.Time
	}
	var slots []slot
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		slots = append(slots, slot{path: filepath.Join(s.dir, e.Name()), size: info.Size(), mtime: info.ModTime()})
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].mtime.Before(slots[j].mtime) })
	n := 0
	for _, sl := range slots {
		if total <= s.maxBytes {
			break
		}
		if sl.path == justWrote {
			continue
		}
		if err := os.Remove(sl.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		total -= sl.size
		n++
	}
	return n
}
