// Package codec is the one place that knows how to read a hostile body.
// Every blob the pipeline moves across a process or a crash boundary is
// written and read through it (DESIGN.md "Wire formats" lists them), and
// it owns three things:
//
//   - The envelope, Seal/Open/AppendSum/Sum: a sealed blob is
//
//     magic | body | crc32c(body) little-endian
//
//     and Open is strict — the input must be exactly one frame, so
//     truncation, appended garbage, and bit rot all fail with a typed
//     error instead of being indistinguishable from success. Shard
//     partials ("LSPART02"), shard outcome envelopes ("LSSHRD01"), stored
//     runs ("LSEVID01", written part by part through SealTo), and the
//     resultstore's segments, index, and footer are sealed; the journal's
//     record frames share Sum.
//
//   - The body cursor, Reader: bounds-checked uvarint / varint /
//     fixed-width little-endian / byte / bool / count / string / bytes
//     reads with a sticky error wrapped in the caller's sentinel, and
//     Finish as the trailing-bytes check. DecodePartial, DecodeSegment,
//     the store index, dex.Decode, xposed.DecodeReport, and the stored
//     run's sections all read through it; no other package keeps a
//     cursor of its own.
//
//   - The few Append helpers encoders share (AppendBool, AppendString),
//     mirrors of what Reader.Bool and Reader.String/Bytes accept.
//
// formats_test.go, in this directory, is the decoder-hardening harness:
// one table row per format, one fuzz target over all of them.
//
// The package is dependency-free (stdlib only) so every layer can import
// it without cycles.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorruptFrame reports a blob that is not exactly one well-formed
// frame: too short, wrong magic, checksum mismatch. Callers wrap it into
// their own typed corruption error so errors.Is works at both layers.
var ErrCorruptFrame = errors.New("codec: corrupt frame")

// crcTable is the Castagnoli polynomial every frame in the repo uses
// (hardware-accelerated on amd64/arm64, same table as the journal).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Sum is the frame checksum: crc32c over the body bytes.
func Sum(body []byte) uint32 { return crc32.Checksum(body, crcTable) }

// Seal frames body as magic | body | crc32c(body) LE.
func Seal(magic string, body []byte) []byte {
	b := make([]byte, 0, len(magic)+len(body)+4)
	b = append(b, magic...)
	b = append(b, body...)
	return AppendSum(b, len(magic))
}

// AppendSum appends crc32c(b[bodyStart:]) little-endian — the closing
// step for encoders that build magic+body incrementally in one buffer.
func AppendSum(b []byte, bodyStart int) []byte {
	return binary.LittleEndian.AppendUint32(b, Sum(b[bodyStart:]))
}

// SealTo streams the frame Seal(magic, concatenated parts) to w part by
// part: the checksum accumulates as each part is written, so no buffer
// ever holds the whole body.
func SealTo(w io.Writer, magic string, parts ...[]byte) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	var sum uint32
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
		sum = crc32.Update(sum, crcTable, p)
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, sum))
	return err
}

// Open verifies that data is exactly magic | body | crc32c(body) and
// returns the body, aliasing data (callers that outlive data must copy).
// Any framing damage — short input, foreign magic, checksum mismatch —
// fails with a wrapped ErrCorruptFrame. Trailing bytes after the checksum
// cannot exist by construction: the checksum is read from the final four
// bytes, so appended garbage changes which bytes are checksummed and the
// verification fails.
func Open(magic string, data []byte) ([]byte, error) {
	if len(data) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than magic+checksum", ErrCorruptFrame, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptFrame, data[:len(magic)])
	}
	body := data[len(magic) : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := Sum(body); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorruptFrame, want, got)
	}
	return body, nil
}

// AppendBool appends v as one byte, 0 or 1 — the only two values
// Reader.Bool accepts.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s as uvarint(len) | bytes — the length-prefixed
// form Reader.String and Reader.Bytes read back.
func AppendString[S ~string | ~[]byte](b []byte, s S) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader is the one bounds-checked cursor every body decoder in the repo
// reads hostile bytes through. Its discipline is what makes a decoder
// safe to feed with a torn file or a forged datagram:
//
//   - the first failure sticks: every later read returns zero, so a
//     decoder reads a whole section and checks Err once;
//   - every failure wraps the sentinel the Reader was made with, so
//     errors.Is(err, <the format's corruption error>) holds without each
//     format re-wrapping;
//   - an element count (Length, Count) is rejected unless that many
//     bytes remain, so no allocation is sized by an unchecked number;
//   - varints must be minimally encoded, so a format whose encoder is
//     deterministic decodes exactly one byte string per value;
//   - Finish rejects bytes left over after the last field.
type Reader struct {
	b        []byte
	pos      int
	err      error
	sentinel error
}

// NewReader returns a cursor over body whose failures wrap sentinel.
func NewReader(body []byte, sentinel error) *Reader {
	return &Reader{b: body, sentinel: sentinel}
}

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining is the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

// Failf records a failure the caller detected (a symbol out of range, an
// unknown flag) with the same sticky, sentinel-wrapped discipline as the
// cursor's own, and returns the Reader's error.
func (r *Reader) Failf(format string, args ...any) error {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
	return r.err
}

// Finish is the decoder's last call: the first failure if any, else an
// error when bytes remain after the last field — trailing bytes inside a
// frame are corruption, not padding.
func (r *Reader) Finish() error {
	if r.err == nil && r.pos != len(r.b) {
		r.Failf("%d trailing bytes after offset %d", len(r.b)-r.pos, r.pos)
	}
	return r.err
}

// Take reads exactly n bytes, aliasing the body.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Failf("truncated at offset %d: need %d bytes, %d remain", r.pos, n, r.Remaining())
		return nil
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.Byte()
	if v > 1 {
		r.Failf("bad bool %d at offset %d", v, r.pos-1)
	}
	return v == 1
}

// Uint16 reads a fixed-width little-endian uint16.
func (r *Reader) Uint16() uint16 {
	if p := r.Take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

// Uint32 reads a fixed-width little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if p := r.Take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// Uint64 reads a fixed-width little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if p := r.Take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// Uvarint reads one minimally-encoded unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	// A multi-byte varint ending in a zero byte carries a redundant
	// high group: the value has a shorter encoding no encoder emits.
	if n <= 0 || (n > 1 && r.b[r.pos+n-1] == 0) {
		r.Failf("bad uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads one minimally-encoded zig-zag signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Count validates an element count read by the caller: it is rejected
// unless at least n bytes remain, which bounds every allocation by the
// input's size for any format whose elements take a byte or more.
func (r *Reader) Count(n uint64) int {
	if r.err == nil && n > uint64(r.Remaining()) {
		r.Failf("count %d exceeds %d remaining bytes at offset %d", n, r.Remaining(), r.pos)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Length reads a uvarint element count, validated as Count does.
func (r *Reader) Length() int { return r.Count(r.Uvarint()) }

// Bytes reads a length-prefixed byte string, aliasing the body.
func (r *Reader) Bytes() []byte { return r.Take(r.Length()) }

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }
