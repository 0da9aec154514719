package snap

import (
	"bytes"
	"testing"
)

// FuzzReaderSparse feeds arbitrary payloads, sealed with a valid
// header and digest so they reach the decoder, to a sparse table of
// 16 u16 entries. It must never panic or let an index land outside the
// table; a payload the decoder accepts must re-encode to bytes that
// decode to the same table and re-encode to themselves.
func FuzzReaderSparse(f *testing.F) {
	w := NewWriter()
	writeU16Table(w, []uint16{3, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xffff})
	f.Add(w.Finish()[headerSize : w.Len()-digestSize])
	w = NewWriter()
	writeU16Table(w, make([]uint16, 16))
	f.Add(w.Finish()[headerSize : w.Len()-digestSize])
	for _, bad := range [][]byte{
		sparsePayload(16, 2, 1, 10, 1, 11),
		sparsePayload(16, 2, 2, 10, 1, 11),
		sparsePayload(16, 1, 16, 10),
		sparsePayload(16, 3, 0, 10),
		sparsePayload(17, 1, 0, 10),
	} {
		f.Add(bad[headerSize : len(bad)-digestSize])
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		w := NewWriter()
		w.Raw(payload)
		r, err := NewReader(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		var tbl [16]uint16
		readU16Table(r, tbl[:])
		if r.Err() != nil {
			return
		}
		enc := func(tbl []uint16) []byte {
			w := NewWriter()
			writeU16Table(w, tbl)
			return w.Finish()
		}
		first := enc(tbl[:])
		r2, err := NewReader(first)
		if err != nil {
			t.Fatal(err)
		}
		var again [16]uint16
		readU16Table(r2, again[:])
		if r2.Err() != nil {
			t.Fatalf("re-encoded table does not decode: %v", r2.Err())
		}
		if again != tbl {
			t.Fatalf("re-encoded table decodes to %v, want %v", again, tbl)
		}
		if second := enc(again[:]); !bytes.Equal(second, first) {
			t.Fatal("re-encoding is not byte-stable")
		}
	})
}
