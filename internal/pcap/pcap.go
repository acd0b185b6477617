// Package pcap implements the libpcap capture-file format together with the
// IPv4, TCP, UDP and DNS wire encodings the simulated network stack emits.
//
// Captures written by this package are genuine pcap files (magic
// 0xa1b2c3d4, version 2.4, LINKTYPE_RAW) — the attribution pipeline reads
// them back cold, exactly as the paper's offline analysis traverses the
// packet capture of each app run (§III-E). A record may keep less of its
// packet than the packet's original length, as libpcap's snap length
// does; this package writes and accepts such a record only for a TCP
// segment whose IPv4 and TCP headers it keeps whole. The Reader walks a
// capture held in memory, and the packets it returns alias its bytes.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

const (
	magicNumber  = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4
	// LinkTypeRaw means packet data begins directly with the IPv4 header.
	LinkTypeRaw = 101
	// DefaultSnapLen is the conventional maximum captured packet size.
	DefaultSnapLen = 262144
)

// ErrCorruptCapture marks a record no valid capture of this format can
// hold: a length beyond the snap length or beyond the largest IPv4
// packet, more bytes captured than the packet had, or a short record
// that is not a whole IPv4 and TCP header of a packet of its original
// length. A record longer than what is left of the capture fails as
// io.ErrUnexpectedEOF.
var ErrCorruptCapture = errors.New("pcap: corrupt capture")

// Packet is one captured packet: a timestamp plus raw bytes starting at the
// IPv4 header.
type Packet struct {
	Timestamp time.Time
	Data      []byte
	// OrigLen is the packet's length on the wire, the record header's
	// original length. Data holds all of it, or — a snapped TCP segment —
	// only its IPv4 and TCP headers. Zero means len(Data) to WritePacket.
	OrigLen int
}

// Writer appends a pcap file — the global header, then one record per
// packet — to a byte slice it owns, so every captured byte is written
// once, straight into its final place. A writer handed the previous
// capture's buffer reuses its capacity and allocates nothing for the
// bytes.
type Writer struct {
	buf []byte
}

// minWriterCap is the capacity floor of a writer's first allocation:
// below it a capture would regrow through a ladder of small buffers
// that the next run's reuse never needs.
const minWriterCap = 64 << 10

// NewWriter starts a capture in dst's backing array, appending after
// dst[:0]; nil starts in a fresh buffer. The global header is written at
// once, so Bytes is a valid (empty) capture from the start.
func NewWriter(dst []byte) *Writer {
	pw := &Writer{buf: dst[:0]}
	hdr := pw.grow(globalHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], magicNumber)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone (hdr[8:12]) and sigfigs (hdr[12:16]) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	return pw
}

// grow extends the capture by n bytes and returns them for the caller to
// fill. When the capacity runs out it doubles — max(2·cap, need), never
// below minWriterCap — rather than following append's ~1.25× policy: a
// run that cannot reuse a buffer then allocates at most about twice its
// final capacity in O(log n) objects, where 1.25× growth allocates five
// times it.
func (pw *Writer) grow(n int) []byte {
	l := len(pw.buf)
	if need := l + n; need > cap(pw.buf) {
		nb := make([]byte, l, max(2*cap(pw.buf), need, minWriterCap))
		copy(nb, pw.buf)
		pw.buf = nb
	}
	pw.buf = pw.buf[:l+n]
	return pw.buf[l:]
}

// Reserve appends the record of a packet of origLen wire bytes stamped
// ts, of which the capture keeps the first capLen, and returns those
// bytes for the caller to fill, so a packet is encoded straight into its
// place in the capture. The bytes are valid until the next write. It
// refuses a record the Reader would: a packet larger than an IPv4 packet
// can be, or more bytes kept than the packet has.
func (pw *Writer) Reserve(ts time.Time, capLen, origLen int) ([]byte, error) {
	if origLen > maxPacketLen {
		return nil, fmt.Errorf("pcap: packet of %d bytes exceeds the IPv4 maximum %d", origLen, maxPacketLen)
	}
	if capLen < 0 || capLen > origLen {
		return nil, fmt.Errorf("pcap: capturing %d bytes of a %d-byte packet", capLen, origLen)
	}
	rec := pw.grow(recordHeaderLen + capLen)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(origLen))
	return rec[recordHeaderLen:], nil
}

// WritePacket appends one packet record, copying p.Data into it.
func (pw *Writer) WritePacket(p Packet) error {
	orig := p.OrigLen
	if orig == 0 {
		orig = len(p.Data)
	}
	b, err := pw.Reserve(p.Timestamp, len(p.Data), orig)
	if err != nil {
		return err
	}
	copy(b, p.Data)
	return nil
}

// Bytes returns the capture written so far. It aliases the writer's
// buffer, whose capacity a later NewWriter can reuse.
func (pw *Writer) Bytes() []byte { return pw.buf }

// View is a capture held in memory, as a source for NewReader to read
// without a copy. Read it through NewReader, or as a plain io.Reader like
// bytes.Reader. The bytes must not change while a packet read from them
// is in use.
type View struct {
	data []byte
	off  int
}

// InPlace wraps a capture held in memory. The view reads data; it does
// not own it.
func InPlace(data []byte) *View { return &View{data: data} }

// Read implements io.Reader.
func (v *View) Read(p []byte) (int, error) {
	if v.off >= len(v.data) {
		return 0, io.EOF
	}
	n := copy(p, v.data[v.off:])
	v.off += n
	return n, nil
}

// Reader iterates the packets of a pcap file held in memory: a slice
// cursor walks the capture, and each packet's Data aliases it.
type Reader struct {
	// data is the unread rest of the capture.
	data    []byte
	order   binary.ByteOrder
	snapLen uint32
}

// NewReader parses the global header and prepares packet iteration. A
// *View is read without a copy; any other source is read whole first,
// so memory is bounded by the source's size, then walked the same way.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{}
	var err error
	if v, ok := r.(*View); ok {
		pr.data, v.off = v.data[v.off:], len(v.data)
	} else if pr.data, err = io.ReadAll(r); err != nil {
		return nil, fmt.Errorf("pcap: reading capture: %w", err)
	}
	if len(pr.data) < globalHeaderLen {
		short := io.ErrUnexpectedEOF
		if len(pr.data) == 0 {
			short = io.EOF
		}
		return nil, fmt.Errorf("pcap: reading global header: %w", short)
	}
	hdr := pr.data[:globalHeaderLen]
	pr.data = pr.data[globalHeaderLen:]
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicNumber:
		pr.order = binary.LittleEndian
	default:
		if binary.BigEndian.Uint32(hdr[0:4]) == magicNumber {
			pr.order = binary.BigEndian
		} else {
			return nil, fmt.Errorf("pcap: unrecognized magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
		}
	}
	major := pr.order.Uint16(hdr[4:6])
	minor := pr.order.Uint16(hdr[6:8])
	if major != versionMajor || minor != versionMinor {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d", major, minor)
	}
	pr.snapLen = pr.order.Uint32(hdr[16:20])
	if link := pr.order.Uint32(hdr[20:24]); link != LinkTypeRaw {
		return nil, fmt.Errorf("pcap: unsupported link type %d, want %d (raw IPv4)", link, LinkTypeRaw)
	}
	return pr, nil
}

// recordHeaderLen is the per-packet record header size; globalHeaderLen
// the file header. maxPacketLen is the largest packet: the reader accepts
// only LINKTYPE_RAW, and an IPv4 packet's total length is a 16-bit field.
const (
	globalHeaderLen = 24
	recordHeaderLen = 16
	maxPacketLen    = 65535
)

// Next reads the next packet into p, or returns io.EOF at end of
// capture; on error p is left as it was. p.Data aliases the capture, its
// capacity capped at the packet, so a caller may keep it as long as the
// capture's bytes hold still. p.OrigLen is the packet's wire length; a
// snapped record's p.Data holds its headers only. Filling the caller's
// packet rather than returning one spares the hot decode loop a copy of
// the packet per record.
func (pr *Reader) Next(p *Packet) error {
	if len(pr.data) < recordHeaderLen {
		if len(pr.data) == 0 {
			return io.EOF
		}
		return fmt.Errorf("pcap: reading record header: %w", io.ErrUnexpectedEOF)
	}
	hdr := pr.data[:recordHeaderLen]
	capLen, origLen, err := pr.record(hdr)
	if err != nil {
		return err
	}
	end := recordHeaderLen + capLen
	data := pr.data[recordHeaderLen:end:end]
	if capLen < origLen {
		// The one kind of short record the capture writes (DESIGN.md §1):
		// the whole IPv4 and TCP headers, options included, of a segment
		// whose IPv4 total length is the original length. The decoder
		// accepts a short record only as that.
		var seg Segment
		if err := DecodeSegmentInto(&seg, data, origLen); err != nil {
			return fmt.Errorf("%w: short record: %w", ErrCorruptCapture, err)
		}
	}
	pr.data = pr.data[end:]
	p.Timestamp = time.Unix(int64(pr.order.Uint32(hdr[0:4])), int64(pr.order.Uint32(hdr[4:8]))*1000).UTC()
	p.Data, p.OrigLen = data, origLen
	return nil
}

// record checks a record header and returns the captured length of the
// packet that follows it and its original length. Every length check
// runs before the packet is sliced.
func (pr *Reader) record(hdr []byte) (capLen, origLen int, err error) {
	c, o := pr.order.Uint32(hdr[8:12]), pr.order.Uint32(hdr[12:16])
	if c > pr.snapLen {
		return 0, 0, fmt.Errorf("%w: captured length %d exceeds snap length %d", ErrCorruptCapture, c, pr.snapLen)
	}
	if o > maxPacketLen {
		return 0, 0, fmt.Errorf("%w: original length %d exceeds the IPv4 maximum %d", ErrCorruptCapture, o, maxPacketLen)
	}
	if c > o {
		return 0, 0, fmt.Errorf("%w: captured length %d exceeds original length %d", ErrCorruptCapture, c, o)
	}
	capLen, origLen = int(c), int(o)
	if capLen > len(pr.data)-recordHeaderLen {
		// The capture ends inside this record.
		return 0, 0, fmt.Errorf("pcap: reading packet data: %w", io.ErrUnexpectedEOF)
	}
	return capLen, origLen, nil
}
