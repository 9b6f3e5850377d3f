// Package persist defines the versioned binary snapshot format that lets
// the §6 blocking indexes outlive the process that built them.
//
// A snapshot is a single self-describing byte blob:
//
//	magic "WDCSNAP1" | version u32 | kind (length-prefixed string) |
//	fingerprint u64 | payload (length-prefixed bytes) | checksum u64
//
// All integers are little-endian. The trailing checksum is a word-wide
// FNV-1a variant (see Checksum) over every preceding byte; snapshots run
// to megabytes and the checksum sits on the cold-load fast path, so it
// digests 8-byte words instead of single bytes. It is verified before
// anything else is parsed, so
// a truncated, bit-flipped, or otherwise damaged file is rejected with a
// *CorruptSnapshotError without the payload decoder ever running. The
// fingerprint is the content address: writers stamp the snapshot with a
// hash of the corpus and configuration it was built from, and Decode
// refuses — with a *FingerprintMismatchError — any snapshot whose stamp
// differs from what the reader expects. A load is therefore trusted iff
// the fingerprint matches; every other outcome falls back to a rebuild.
//
// Payloads are written with Buffer and read back with Reader, a
// bounds-checked cursor whose sticky error model lets decoders run a
// straight-line sequence of reads and check failure once at the end.
// Length prefixes are validated against the bytes actually remaining
// before any allocation, so hostile lengths cannot cause huge allocations
// even though the checksum already makes hostile inputs unreachable in
// practice.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// Magic identifies a snapshot file; it doubles as the format's major
// version ("WDCSNAP1"), so incompatible future layouts change the magic
// rather than reinterpreting old bytes.
const Magic = "WDCSNAP1"

// Version is the current snapshot format version. Decode rejects any
// other value with a *CorruptSnapshotError; snapshots are cheap to
// rebuild, so there is no cross-version migration path.
const Version = 2

// maxKindLen bounds the kind string; real kinds are short path-like
// identifiers ("blocking/minhash-lsh").
const maxKindLen = 256

// CorruptSnapshotError reports a snapshot that failed structural
// validation: wrong magic, bad checksum, truncation, an unsupported
// version, a kind other than the one requested, or a payload the decoder
// could not make sense of. It always means "ignore this snapshot and
// rebuild", never "the caller passed bad arguments".
type CorruptSnapshotError struct {
	// Kind is the index kind the caller asked for.
	Kind string
	// Reason describes what failed, for logs.
	Reason string
}

// Error implements the error interface.
func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("persist: corrupt %s snapshot: %s", e.Kind, e.Reason)
}

// Corrupt returns a *CorruptSnapshotError with a formatted reason.
func Corrupt(kind, format string, args ...any) error {
	return &CorruptSnapshotError{Kind: kind, Reason: fmt.Sprintf(format, args...)}
}

// FingerprintMismatchError reports a structurally valid snapshot that was
// written for a different corpus or configuration: its stored fingerprint
// does not equal the one the reader derived from its own inputs. Loading
// such a snapshot would silently answer queries about the wrong data, so
// it is refused and the caller rebuilds.
type FingerprintMismatchError struct {
	Kind string
	// Want is the fingerprint derived from the caller's corpus/config;
	// Got is the one stored in the snapshot.
	Want, Got uint64
}

// Error implements the error interface.
func (e *FingerprintMismatchError) Error() string {
	return fmt.Sprintf("persist: %s snapshot fingerprint %016x does not match corpus/config fingerprint %016x",
		e.Kind, e.Got, e.Want)
}

// Encode wraps a payload in the snapshot envelope: magic, version, kind,
// fingerprint, payload, trailing checksum.
func Encode(kind string, fingerprint uint64, payload []byte) []byte {
	var b Buffer
	b.buf = make([]byte, 0, len(Magic)+4+8+len(kind)+8+8+len(payload)+8)
	b.buf = append(b.buf, Magic...)
	b.Uint32(Version)
	b.String(kind)
	b.Uint64(fingerprint)
	b.Blob(payload)
	b.Uint64(Checksum(b.buf))
	return b.buf
}

// Checksum digests data with an FNV-1a variant that consumes 8-byte
// little-endian words (the final partial word zero-padded) and folds in
// the byte length, so payloads differing only in trailing zero bytes
// still digest differently. Word-wide rounds keep the cost near memory
// bandwidth, which matters because every cold snapshot load checksums the
// whole file before trusting a single byte of it.
func Checksum(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	i := 0
	for ; i+8 <= len(data); i += 8 {
		h ^= binary.LittleEndian.Uint64(data[i:])
		h *= prime64
	}
	if i < len(data) {
		var tail [8]byte
		copy(tail[:], data[i:])
		h ^= binary.LittleEndian.Uint64(tail[:])
		h *= prime64
	}
	h ^= uint64(len(data))
	h *= prime64
	return h
}

// Decode validates the snapshot envelope and returns the payload. The
// checksum is verified first, then magic, version, kind, and finally the
// fingerprint against want; any structural failure yields a
// *CorruptSnapshotError and a fingerprint difference yields a
// *FingerprintMismatchError. The returned payload aliases data.
func Decode(data []byte, kind string, want uint64) ([]byte, error) {
	if len(data) < len(Magic)+4+8+8+8+8 {
		return nil, Corrupt(kind, "truncated: %d bytes", len(data))
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	if got := binary.LittleEndian.Uint64(tail); got != Checksum(body) {
		return nil, Corrupt(kind, "checksum mismatch")
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, Corrupt(kind, "bad magic")
	}
	r := NewReader(body[len(Magic):])
	if v := r.Uint32(); r.Err() == nil && v != Version {
		return nil, Corrupt(kind, "unsupported snapshot version %d", v)
	}
	gotKind := r.String()
	fp := r.Uint64()
	payload := r.Blob()
	if err := r.Err(); err != nil {
		return nil, Corrupt(kind, "bad envelope: %v", err)
	}
	if r.Remaining() != 0 {
		return nil, Corrupt(kind, "%d trailing bytes after payload", r.Remaining())
	}
	if gotKind != kind {
		return nil, Corrupt(kind, "snapshot holds kind %q", gotKind)
	}
	if fp != want {
		return nil, &FingerprintMismatchError{Kind: kind, Want: want, Got: fp}
	}
	return payload, nil
}

// The fsync seams of WriteFile, indirected so tests can count the
// durability calls and inject failures on each path.
var (
	fsyncFile = func(f *os.File) error { return f.Sync() }
	fsyncDir  = func(d *os.File) error { return d.Sync() }
)

// WriteFile writes a snapshot blob atomically AND durably: the bytes land
// in a temporary file in the destination directory (created if needed),
// the temp file is fsynced before the rename — without it, a crash after
// the rename can surface a zero-length or partial "atomic" snapshot,
// because the rename may reach disk before the data does — and the parent
// directory is fsynced after the rename so the new directory entry itself
// survives a crash. A reader therefore either sees the old state or the
// complete new snapshot, never a torn one.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := fsyncFile(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncParentDir(dir)
}

// syncParentDir fsyncs a directory so a just-renamed entry is durable.
// Some platforms cannot fsync directory handles (notably Windows); those
// errors are swallowed — the rename itself is still atomic there, which
// is the strongest guarantee the platform offers.
func syncParentDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := fsyncDir(d); err != nil && runtime.GOOS != "windows" {
		return err
	}
	return nil
}

// Buffer accumulates a snapshot payload. All writes are little-endian and
// fixed-width; variable-length values carry a u64 count prefix that
// Reader re-validates on the way back in.
type Buffer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (b *Buffer) Bytes() []byte { return b.buf }

// Uint32 appends a little-endian u32.
func (b *Buffer) Uint32(v uint32) { b.buf = binary.LittleEndian.AppendUint32(b.buf, v) }

// Uint64 appends a little-endian u64.
func (b *Buffer) Uint64(v uint64) { b.buf = binary.LittleEndian.AppendUint64(b.buf, v) }

// Int appends a (possibly negative) int as a two's-complement u64.
func (b *Buffer) Int(v int) { b.Uint64(uint64(int64(v))) }

// String appends a length-prefixed string.
func (b *Buffer) String(s string) {
	b.Uint64(uint64(len(s)))
	b.buf = append(b.buf, s...)
}

// Blob appends a length-prefixed byte slice.
func (b *Buffer) Blob(p []byte) {
	b.Uint64(uint64(len(p)))
	b.buf = append(b.buf, p...)
}

// Ints appends a length-prefixed []int.
func (b *Buffer) Ints(vs []int) {
	b.Uint64(uint64(len(vs)))
	for _, v := range vs {
		b.Int(v)
	}
}

// Int32s appends a length-prefixed []int32.
func (b *Buffer) Int32s(vs []int32) {
	b.Uint64(uint64(len(vs)))
	for _, v := range vs {
		b.Uint32(uint32(v))
	}
}

// Uint64s appends a length-prefixed []uint64.
func (b *Buffer) Uint64s(vs []uint64) {
	b.Uint64(uint64(len(vs)))
	for _, v := range vs {
		b.Uint64(v)
	}
}

// Float32s appends a length-prefixed []float32 (IEEE-754 bits).
func (b *Buffer) Float32s(vs []float32) {
	b.Uint64(uint64(len(vs)))
	for _, v := range vs {
		b.Uint32(math.Float32bits(v))
	}
}

// Reader is a bounds-checked cursor over a payload. The first failed read
// latches an error; every subsequent read returns a zero value, so
// decoders can issue a full sequence of reads and inspect Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first read error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// take returns the next n bytes, or nil after latching an error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail("need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

// length reads a u64 count prefix and validates that the remaining bytes
// can hold that many elements of elemSize bytes, before any allocation.
func (r *Reader) length(elemSize int) int {
	v := r.Uint64()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.Remaining())/uint64(elemSize) {
		r.fail("length %d exceeds remaining %d bytes", v, r.Remaining())
		return 0
	}
	return int(v)
}

// Uint32 reads a little-endian u32.
func (r *Reader) Uint32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// Uint64 reads a little-endian u64.
func (r *Reader) Uint64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// Int reads a two's-complement u64 back into an int.
func (r *Reader) Int() int { return int(int64(r.Uint64())) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length(1)
	if r.err == nil && n > maxKindLen {
		r.fail("string length %d exceeds cap %d", n, maxKindLen)
	}
	return string(r.take(n))
}

// Blob reads a length-prefixed byte slice aliasing the underlying buffer
// (no copy).
func (r *Reader) Blob() []byte {
	n := r.length(1)
	return r.take(n)
}

// The slice readers below take the whole element region in one bounds
// check and decode straight off it — length already validated that the
// bytes exist, and the per-element Uint64/Uint32 path would re-check the
// sticky error and re-slice once per element on multi-megabyte blobs.

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := r.length(8)
	p := r.take(n * 8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(int64(binary.LittleEndian.Uint64(p[i*8:])))
	}
	return vs
}

// Int32s reads a length-prefixed []int32.
func (r *Reader) Int32s() []int32 {
	n := r.length(4)
	p := r.take(n * 4)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return vs
}

// Uint64s reads a length-prefixed []uint64.
func (r *Reader) Uint64s() []uint64 {
	n := r.length(8)
	p := r.take(n * 8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return vs
}

// Float32s reads a length-prefixed []float32.
func (r *Reader) Float32s() []float32 {
	n := r.length(4)
	p := r.take(n * 4)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[i*4:]))
	}
	return vs
}
