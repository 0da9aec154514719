package snap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter()
	w.U8(7)
	w.U16(300)
	w.U32(70_000)
	w.U64(1 << 40)
	w.I8(-3)
	w.I64(-1 << 40)
	w.Int(-42)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.25)
	w.String("warmup")
	w.Raw([]byte{1, 2, 3})
	w.U64s([]uint64{9, 8})
	writeU16Table(w, []uint16{0, 5, 0, 0, 7})
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := r.U16(); got != 300 {
		t.Fatalf("U16 = %d", got)
	}
	if got := r.U32(); got != 70_000 {
		t.Fatalf("U32 = %d", got)
	}
	if got := r.U64(); got != 1<<40 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I8(); got != -3 {
		t.Fatalf("I8 = %d", got)
	}
	if got := r.I64(); got != -1<<40 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool order wrong")
	}
	if got := r.F64(); got != 3.25 {
		t.Fatalf("F64 = %v", got)
	}
	if got := r.String(); got != "warmup" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	u64s := make([]uint64, 2)
	r.U64sInto(u64s)
	if u64s[0] != 9 || u64s[1] != 8 {
		t.Fatalf("U64s = %v", u64s)
	}
	u16s := make([]uint16, 5)
	readU16Table(r, u16s)
	if want := []uint16{0, 5, 0, 0, 7}; !reflect.DeepEqual(u16s, want) {
		t.Fatalf("sparse table = %v, want %v", u16s, want)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// writeU16Table and readU16Table are the sparse encoder and decoder of
// a table of u16 entries, the shape every component table uses.
func writeU16Table(w *Writer, tbl []uint16) {
	t := w.Sparse(len(tbl))
	for i, v := range tbl {
		if v != 0 {
			t.Entry(i)
			w.U16(v)
		}
	}
	t.End()
}

func readU16Table(r *Reader, tbl []uint16) {
	t := r.Sparse(len(tbl), 2)
	for t.Next() {
		tbl[t.Index()] = r.U16()
	}
}

// sparsePayload seals a hand-built sparse table of u16 entries: the
// table length, the entry count, then index/value pairs, so tests can
// write what SparseWriter refuses to.
func sparsePayload(size, count uint32, entries ...uint32) []byte {
	w := NewWriter()
	w.U32(size)
	w.U32(count)
	for k := 0; k+1 < len(entries); k += 2 {
		w.U32(entries[k])
		w.U16(uint16(entries[k+1]))
	}
	return w.Finish()
}

func TestReaderPoisonsOnUnderrunAndLengthMismatch(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{1, 2, 3})
	data := w.Finish()

	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 2) // wrong expected length
	r.U64sInto(dst)
	if r.Err() == nil {
		t.Fatal("length mismatch not reported")
	}
	if got := r.U64(); got != 0 {
		t.Fatalf("poisoned reader returned %d, want zero value", got)
	}

	r2, err := NewReader(NewWriter().Finish())
	if err != nil {
		t.Fatal(err)
	}
	r2.U64() // empty payload
	if !errors.Is(r2.Err(), ErrMalformed) {
		t.Fatalf("underrun: err = %v, want ErrMalformed", r2.Err())
	}

	// A count whose elements the payload left cannot hold is refused:
	// the reader poisons itself and reports 0, so the caller never sizes
	// an allocation from it. Two 8-byte elements do not fit in the 8
	// bytes that follow, though two 1-byte elements would.
	for _, n := range []uint32{2, 1 << 24} {
		w3 := NewWriter()
		w3.U32(n)
		w3.U64(7)
		r3, err := NewReader(w3.Finish())
		if err != nil {
			t.Fatal(err)
		}
		if got := r3.Count(8); got != 0 {
			t.Fatalf("oversized Count(8) of %d = %d, want 0", n, got)
		}
		if !errors.Is(r3.Err(), ErrMalformed) {
			t.Fatalf("oversized Count(8) of %d: err = %v, want ErrMalformed", n, r3.Err())
		}
	}
	// A count the payload can hold is accepted.
	w4 := NewWriter()
	w4.U64s([]uint64{1, 2})
	r4, err := NewReader(w4.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if n := r4.Count(8); n != 2 || r4.Err() != nil {
		t.Fatalf("Count(8) = %d (err %v), want 2", n, r4.Err())
	}

	// Sparse tables: the decoder sizes the table at 4 u16 entries. Each
	// hostile shape is refused with ErrMalformed before a value lands
	// outside the table.
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"repeated index", sparsePayload(4, 2, 1, 10, 1, 11)},
		{"descending index", sparsePayload(4, 2, 2, 10, 1, 11)},
		{"out-of-range index", sparsePayload(4, 1, 4, 10)},
		{"count past payload", sparsePayload(4, 3, 0, 10)},
		{"table length mismatch", sparsePayload(5, 1, 0, 10)},
	} {
		r, err := NewReader(tc.data)
		if err != nil {
			t.Fatal(err)
		}
		readU16Table(r, make([]uint16, 4))
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", tc.name, r.Err())
		}
	}
	// The well-formed neighbour of those rows decodes.
	r5, err := NewReader(sparsePayload(4, 2, 1, 10, 3, 11))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint16, 4)
	readU16Table(r5, got)
	if r5.Err() != nil || !reflect.DeepEqual(got, []uint16{0, 10, 0, 11}) {
		t.Fatalf("well-formed sparse table = %v (err %v)", got, r5.Err())
	}
}

func TestVerifyRejectsCorruption(t *testing.T) {
	w := NewWriter()
	w.U64(123)
	data := w.Finish()
	if err := Verify(data); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)-1] },
		"bit flip":  func(b []byte) []byte { c := append([]byte(nil), b...); c[headerSize] ^= 1; return c },
		"bad magic": func(b []byte) []byte { c := append([]byte(nil), b...); c[0] = 'X'; return c },
		"version":   func(b []byte) []byte { c := append([]byte(nil), b...); c[8] = 99; return c },
		"tiny":      func([]byte) []byte { return []byte{1, 2} },
	} {
		if err := Verify(mutate(data)); err == nil {
			t.Errorf("%s snapshot passed Verify", name)
		}
	}
}

func TestStoreSaveLoadAndSelfHealing(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 0)
	key := Key("mcf", "0123456789abcdef", 10_000, 3)
	if key == "" {
		t.Fatal("key rejected")
	}

	w := NewWriter()
	w.U64(7)
	data := w.Finish()
	if written, _ := s.Save(key, data); !written {
		t.Fatal("save failed")
	}
	if got := s.Load(key); !bytes.Equal(got, data) {
		t.Fatal("load returned different bytes")
	}

	// Corrupt the slot on disk: the next load must miss AND delete it.
	path := filepath.Join(dir, key+".snap")
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.Load(key); got != nil {
		t.Fatal("corrupt slot returned data")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt slot not deleted (self-healing broken)")
	}
	// And the store recovers by rewriting.
	if written, _ := s.Save(key, data); !written {
		t.Fatal("re-save after corruption failed")
	}
	if got := s.Load(key); !bytes.Equal(got, data) {
		t.Fatal("reload after heal failed")
	}
}

func TestStoreEvictsLRUPastCap(t *testing.T) {
	dir := t.TempDir()
	w := NewWriter()
	w.Raw(make([]byte, 1000))
	data := w.Finish()

	s := NewStore(dir, int64(2*len(data)+10))
	hash := "0123456789abcdef"
	for i := 1; i <= 2; i++ {
		if written, evicted := s.Save(Key("w", hash, 10_000, i), data); !written || evicted != 0 {
			t.Fatalf("slot %d: written=%v evicted=%d", i, written, evicted)
		}
	}
	// Age slot 1 so it is the LRU victim regardless of filesystem mtime
	// granularity, then exceed the cap.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, Key("w", hash, 10_000, 1)+".snap"), old, old)
	if written, evicted := s.Save(Key("w", hash, 10_000, 3), data); !written || evicted != 1 {
		t.Fatalf("third save: written=%v evicted=%d, want eviction of 1", written, evicted)
	}
	if s.Load(Key("w", hash, 10_000, 1)) != nil {
		t.Fatal("LRU slot survived eviction")
	}
	if s.Load(Key("w", hash, 10_000, 3)) == nil {
		t.Fatal("just-written slot was evicted")
	}
}

func TestStoreNilAndBadKeysAreSafeMisses(t *testing.T) {
	var s *Store // NewStore("") contract
	if s2 := NewStore("", 0); s2 != nil {
		t.Fatal("empty dir should yield a nil store")
	}
	if s.Load("k") != nil {
		t.Fatal("nil store load returned data")
	}
	if written, _ := s.Save("k", []byte{1}); written {
		t.Fatal("nil store save reported success")
	}
	if Key("a/b", "0123456789abcdef", 10_000, 1) != "" {
		t.Fatal("separator workload accepted")
	}
	if Key("w", "short", 10_000, 1) != "" {
		t.Fatal("short hash accepted")
	}
	real := NewStore(t.TempDir(), 0)
	if written, _ := real.Save("../escape", []byte{1}); written {
		t.Fatal("path-escaping key accepted")
	}
}

func TestKeySeparatesIntervalLengths(t *testing.T) {
	hash := "0123456789abcdef"
	a := Key("w", hash, 10_000, 2)
	b := Key("w", hash, 20_000, 2)
	if a == "" || b == "" {
		t.Fatal("key rejected")
	}
	if a == b {
		t.Fatal("different interval lengths share a slot key")
	}
}
