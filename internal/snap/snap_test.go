package snap

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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
	w.U16s([]uint16{5})
	w.I8s([]int8{-1, 0, 1})
	w.U8s([]uint8{4, 4})
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
	u16s := make([]uint16, 1)
	r.U16sInto(u16s)
	i8s := make([]int8, 3)
	r.I8sInto(i8s)
	u8s := make([]uint8, 2)
	r.U8sInto(u8s)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
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
