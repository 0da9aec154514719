// Package snap is the deterministic binary encoding layer behind
// pipeline machine snapshots: a versioned little-endian byte format with
// an integrity digest, plus the content-addressed on-disk slot store
// (atomic writes, self-healing loads) that holds both the warmup
// snapshots and the harness result cache.
//
// The format is intentionally dumb: a fixed header (magic + format
// version), a flat payload written by per-package encoders, and a
// trailing SHA-256 over everything before it. Determinism is the whole
// point — two snapshots of identical machine state are byte-identical,
// so snapshots can be content-addressed and compared — which is why
// encoders must sort map keys before writing and why the writer offers
// no reflection-driven "encode whatever" entry point beyond Block
// (fixed-size structs only, where field order is the struct order).
package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Version is the snapshot format version. Any change to what a
// component encoder writes must bump it: a reader never attempts to
// decode a payload from another version. Version 2 writes every
// fixed-size table sparsely (Writer.Sparse).
const Version = 2

// magic identifies a snapshot file; 8 bytes so the header stays aligned.
var magic = [8]byte{'S', 'C', 'C', 'S', 'N', 'A', 'P', '1'}

// headerSize is magic + u32 version; digestSize the trailing SHA-256.
const (
	headerSize = 12
	digestSize = sha256.Size
)

// Writer accumulates a snapshot payload. All integers are
// little-endian; variable-length data carries a u32 length prefix.
type Writer struct {
	buf []byte
}

// NewWriter starts a snapshot with the format header already written.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	return w
}

// Finish appends the integrity digest and returns the snapshot bytes.
// The writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	return w.buf
}

// Len returns the bytes written so far (header included).
func (w *Writer) Len() int { return len(w.buf) }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I8(v int8)    { w.buf = append(w.buf, byte(v)) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }

// Int writes a Go int as a signed 64-bit value, so the encoding does
// not depend on the platform word size.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw writes b verbatim, without a length prefix (for fixed-size blobs
// like memory pages whose size is part of the format).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// U64s writes a length-prefixed slice of u64.
func (w *Writer) U64s(v []uint64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.U64(x)
	}
}

// SparseWriter writes one fixed-size table sparsely: the table length,
// the number of entries written, then each written entry as its u32
// index followed by the entry's fields. An encoder writes only the
// entries that differ from the value the table's constructor gives
// them (zero for every table today), so a table costs bytes in
// proportion to the state a run touched, not to its capacity.
type SparseWriter struct {
	w     *Writer
	size  int
	at    int // offset of the entry count, patched by End
	count uint32
	next  int // smallest index the next entry may take
}

// Sparse starts a sparse table of size entries.
func (w *Writer) Sparse(size int) SparseWriter {
	w.U32(uint32(size))
	t := SparseWriter{w: w, size: size, at: len(w.buf)}
	w.U32(0)
	return t
}

// Entry writes index i; the caller writes the entry's fields next.
// Indices must be strictly ascending and inside the table.
func (t *SparseWriter) Entry(i int) {
	if i < t.next || i >= t.size {
		// Encoders walk their tables in order; anything else is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("snap: sparse index %d not in [%d, %d)", i, t.next, t.size))
	}
	t.next = i + 1
	t.count++
	t.w.U32(uint32(i))
}

// End writes the entry count into the table's header.
func (t *SparseWriter) End() {
	binary.LittleEndian.PutUint32(t.w.buf[t.at:], t.count)
}

// Block writes a fixed-size struct (exported fields only, no pointers,
// slices or maps) in declaration order via encoding/binary. The encoded
// width is part of the snapshot format: changing such a struct requires
// a Version bump.
func (w *Writer) Block(v any) {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
		// Blocks are written for known fixed-size structs; a failure is a
		// programming error in an encoder, not a runtime condition.
		panic(fmt.Sprintf("snap: unencodable block %T: %v", v, err))
	}
	w.buf = append(w.buf, b.Bytes()...)
}

// ErrMalformed is wrapped by every payload error a Reader reports on
// its own — an underrun, a length prefix other than the decoder
// expects, or a count the payload cannot hold — so callers can tell
// hostile or truncated bytes from decoder-level mismatches (Errorf).
var ErrMalformed = errors.New("snap: malformed snapshot payload")

// Reader decodes a snapshot produced by Writer. Errors are sticky: the
// first failure poisons the reader, later reads return zero values, and
// Err reports the first failure — so decoders read straight through and
// check once.
type Reader struct {
	buf []byte
	off int
	err error
}

// Verify checks the framing of a snapshot without decoding the payload:
// header present, magic and version match, digest over the payload is
// intact. It is what the store uses to detect corrupt slots on load.
func Verify(data []byte) error {
	if len(data) < headerSize+digestSize {
		return fmt.Errorf("snap: truncated snapshot (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return fmt.Errorf("snap: bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return fmt.Errorf("snap: format version %d, want %d", v, Version)
	}
	body, digest := data[:len(data)-digestSize], data[len(data)-digestSize:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], digest) {
		return fmt.Errorf("snap: integrity digest mismatch")
	}
	return nil
}

// NewReader verifies the snapshot framing and positions the reader at
// the start of the payload.
func NewReader(data []byte) (*Reader, error) {
	if err := Verify(data); err != nil {
		return nil, err
	}
	return &Reader{buf: data[:len(data)-digestSize], off: headerSize}, nil
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Errorf poisons the reader with a decoder-level failure (e.g. a
// geometry mismatch against the live machine's configuration).
func (r *Reader) Errorf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n payload bytes, or nil after poisoning the
// reader when fewer remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: underrun (want %d bytes at offset %d of %d)", ErrMalformed, n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I8() int8   { return int8(r.U8()) }
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a value written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Raw reads n verbatim bytes (the counterpart of Writer.Raw).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Len reads a u32 length prefix that must equal want, the decoder's
// expected element count; a mismatch poisons the reader.
func (r *Reader) Len(want int) {
	if n := int(r.U32()); r.err == nil && n != want {
		r.err = fmt.Errorf("%w: length %d, decoder expects %d", ErrMalformed, n, want)
	}
}

// Count reads a u32 element count for a variable-length section whose
// elements each encode to at least elemSize bytes. A count the rest of
// the payload cannot hold poisons the reader with ErrMalformed, so a
// crafted prefix never makes the caller allocate more per element than
// the input spends on it. A poisoned reader returns 0.
func (r *Reader) Count(elemSize int) int {
	n := r.U32()
	if r.err != nil {
		return 0
	}
	if left := len(r.buf) - r.off; uint64(n)*uint64(elemSize) > uint64(left) {
		r.err = fmt.Errorf("%w: count %d of %d-byte elements exceeds the %d payload bytes left",
			ErrMalformed, n, elemSize, left)
		return 0
	}
	return int(n)
}

// U64sInto fills dst from a length-prefixed slice written by U64s; the
// stored length must match len(dst).
func (r *Reader) U64sInto(dst []uint64) {
	r.Len(len(dst))
	for i := range dst {
		dst[i] = r.U64()
	}
}

// SparseReader reads a table written by SparseWriter. Entries the
// table does not list keep the value the decoder's constructor gave
// them, so a sparse table restores onto a freshly built component.
type SparseReader struct {
	r     *Reader
	size  int
	left  int
	next  int // smallest index the next entry may take
	index int
}

// Sparse starts reading a sparse table that the decoder sizes at size
// entries, each encoding to at least entryBytes bytes after its index.
// A stored length other than size, or an entry count the payload left
// cannot hold (Count), poisons the reader with ErrMalformed.
func (r *Reader) Sparse(size, entryBytes int) SparseReader {
	r.Len(size)
	return SparseReader{r: r, size: size, left: r.Count(4 + entryBytes)}
}

// Next reads the next entry's index and reports whether there is one;
// the caller then reads the entry's fields and stores them at Index.
// An index that is not above the previous one, or that lies outside
// the table, poisons the reader with ErrMalformed. Next returns false
// once every entry is read or the reader is poisoned.
func (t *SparseReader) Next() bool {
	if t.left == 0 {
		return false
	}
	t.left--
	i := t.r.U32()
	if t.r.err != nil {
		return false
	}
	if int64(i) < int64(t.next) || int64(i) >= int64(t.size) {
		t.r.err = fmt.Errorf("%w: sparse index %d not in [%d, %d)", ErrMalformed, i, t.next, t.size)
		return false
	}
	t.index = int(i)
	t.next = t.index + 1
	return true
}

// Index is the table index of the entry Next just read.
func (t *SparseReader) Index() int { return t.index }

// Block reads a fixed-size struct written by Writer.Block; v must be a
// pointer to the same struct type.
func (r *Reader) Block(v any) {
	if r.err != nil {
		return
	}
	n := binary.Size(v)
	if n < 0 {
		r.err = fmt.Errorf("snap: undecodable block %T", v)
		return
	}
	b := r.take(n)
	if b == nil {
		return
	}
	if err := binary.Read(bytes.NewReader(b), binary.LittleEndian, v); err != nil {
		r.err = fmt.Errorf("snap: decode block %T: %w", v, err)
	}
}
