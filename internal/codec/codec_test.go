package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, {}, {0x00}, []byte("hello frame body")} {
		sealed := Seal("LSTEST01", body)
		got, err := Open("LSTEST01", sealed)
		if err != nil {
			t.Fatalf("Open(Seal(%q)): %v", body, err)
		}
		if string(got) != string(body) {
			t.Fatalf("Open returned %q, want %q", got, body)
		}
	}
}

func TestAppendSumMatchesSeal(t *testing.T) {
	body := []byte("incremental encoder body")
	b := append([]byte("LSTEST01"), body...)
	b = AppendSum(b, len("LSTEST01"))
	if string(b) != string(Seal("LSTEST01", body)) {
		t.Fatalf("AppendSum and Seal disagree on the framed bytes")
	}
}

func TestSealToMatchesSeal(t *testing.T) {
	parts := [][]byte{[]byte("streamed "), nil, []byte("encoder"), {}, []byte(" body")}
	var buf bytes.Buffer
	if err := SealTo(&buf, "LSTEST01", parts...); err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(Seal("LSTEST01", bytes.Join(parts, nil))) {
		t.Fatalf("SealTo and Seal disagree on the framed bytes")
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	sealed := Seal("LSTEST01", []byte("payload"))
	cases := map[string][]byte{
		"empty":       {},
		"short":       sealed[:len("LSTEST01")+3],
		"bad magic":   append([]byte("XXTEST01"), sealed[8:]...),
		"truncated":   sealed[:len(sealed)-1],
		"trailing":    append(append([]byte(nil), sealed...), 0x00),
		"flipped bit": flipBit(sealed, 10),
	}
	for name, data := range cases {
		if _, err := Open("LSTEST01", data); !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: err = %v, want ErrCorruptFrame", name, err)
		}
	}
	// Every truncation of a valid frame must fail — no prefix of a frame
	// is itself a valid frame.
	for n := 0; n < len(sealed); n++ {
		if _, err := Open("LSTEST01", sealed[:n]); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorruptFrame", n, err)
		}
	}
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

var errTestFormat = errors.New("test: corrupt")

func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = binary.LittleEndian.AppendUint16(b, 0xBEEF)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, 1<<63|5)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "héllo")
	b = AppendString(b, []byte{1, 2, 3})
	b = binary.AppendUvarint(b, 2) // a count with two one-byte elements after it
	b = append(b, 9, 8)

	r := NewReader(b, errTestFormat)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Uint16(); v != 0xBEEF {
		t.Errorf("Uint16 = %x", v)
	}
	if v := r.Uint32(); v != 0xDEADBEEF {
		t.Errorf("Uint32 = %x", v)
	}
	if v := r.Uint64(); v != 1<<63|5 {
		t.Errorf("Uint64 = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not read true,false")
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("String = %q", v)
	}
	if v := r.Bytes(); string(v) != "\x01\x02\x03" {
		t.Errorf("Bytes = %x", v)
	}
	if n := r.Length(); n != 2 || r.Byte() != 9 || r.Byte() != 8 {
		t.Errorf("Length/Byte read %d elements wrong", n)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("Finish on a fully-read body: %v", err)
	}
}

// TestReaderRejects: each hostile shape fails, typed with the caller's
// sentinel, and the failure sticks — later reads return zero and Finish
// reports the first error.
func TestReaderRejects(t *testing.T) {
	cases := map[string]struct {
		body []byte
		read func(r *Reader)
	}{
		"empty byte":           {nil, func(r *Reader) { r.Byte() }},
		"short uint32":         {[]byte{1, 2, 3}, func(r *Reader) { r.Uint32() }},
		"bad bool":             {[]byte{2}, func(r *Reader) { r.Bool() }},
		"unterminated uvarint": {[]byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		"overlong uvarint":     {bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Uvarint() }},
		"padded uvarint":       {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"padded varint":        {[]byte{0x82, 0x00}, func(r *Reader) { r.Varint() }},
		"count past the end":   {[]byte{5, 1, 2}, func(r *Reader) { r.Length() }},
		"huge count":           {binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Length() }},
		"string past the end":  {[]byte{4, 'a', 'b'}, func(r *Reader) { _ = r.String() }},
		"negative take":        {[]byte{1}, func(r *Reader) { r.Take(-1) }},
		"trailing byte":        {[]byte{1, 0}, func(r *Reader) { r.Byte() }},
		"caller failure":       {[]byte{7}, func(r *Reader) { _ = r.Failf("symbol %d out of range", r.Byte()) }},
	}
	for name, c := range cases {
		r := NewReader(c.body, errTestFormat)
		c.read(r)
		first := r.Finish()
		if !errors.Is(first, errTestFormat) {
			t.Errorf("%s: err = %v, want the caller's sentinel", name, first)
			continue
		}
		if r.Uvarint() != 0 || r.Byte() != 0 || r.String() != "" || r.Length() != 0 {
			t.Errorf("%s: reads after a failure returned data", name)
		}
		if again := r.Finish(); again != first {
			t.Errorf("%s: error did not stick: %v then %v", name, first, again)
		}
	}
}
