// Package pcap implements the libpcap capture-file format together with the
// IPv4, TCP, UDP and DNS wire encodings the simulated network stack emits.
//
// Captures written by this package are genuine pcap files (magic
// 0xa1b2c3d4, version 2.4, LINKTYPE_RAW) — the attribution pipeline reads
// them back cold, exactly as the paper's offline analysis traverses the
// packet capture of each app run (§III-E). A record may keep less of its
// packet than the packet's original length, as libpcap's snap length
// does; this package writes and accepts such a record only for a TCP
// segment whose IPv4 and TCP headers it keeps whole.
package pcap

import (
	"bufio"
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
// length. The reader refuses a bad length before allocating for it. A
// record longer than what is left of a source of known size fails as
// io.ErrUnexpectedEOF, also before allocating.
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

// View is a capture held in memory, as a source for NewReader to read in
// place: the packets it returns alias the capture's bytes instead of
// being copied out of it. Read it through NewReader, or as a plain
// io.Reader like bytes.Reader. The bytes must not change while a packet
// read from them is in use.
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

// take consumes and returns the bytes not yet read.
func (v *View) take() []byte {
	b := v.data[v.off:]
	v.off = len(v.data)
	return b
}

// Reader iterates packets out of a pcap file. It has two modes with one
// record-header check, so they accept and reject the same bytes with the
// same errors. Over a View it reads in place: a slice cursor walks the
// capture and each packet's Data aliases it. Over any other source it
// streams: packets are read one at a time (NextInto reuses the caller's
// buffer), so memory stays O(largest packet) regardless of capture size.
// ReadAll is a convenience for captures known to fit in memory.
type Reader struct {
	// r is the streaming source; nil when reading in place.
	r *bufio.Reader
	// data is the unread rest of an in-place capture.
	data    []byte
	order   binary.ByteOrder
	snapLen uint32
	link    uint32
	// left is the number of source bytes not yet consumed when the size
	// of the source is known (a View, or a source exposing Len() like
	// bytes.Reader), else -1. It bounds the record a header may declare,
	// and — the pcap global header carries no packet count — it is the
	// only sizing signal ReadAll has.
	left int
	// rec is the reader-owned record-header scratch buffer. A local
	// array would escape through the io.ReadFull interface call and cost
	// one heap allocation per packet on the NextInto hot path.
	rec [recordHeaderLen]byte
}

// NewReader parses the global header and prepares packet iteration. A
// *View source is read in place; any other is streamed.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{left: -1}
	var hdr []byte
	if v, ok := r.(*View); ok {
		pr.data = v.take()
		if len(pr.data) < globalHeaderLen {
			// What io.ReadFull reports for a short stream.
			short := io.ErrUnexpectedEOF
			if len(pr.data) == 0 {
				short = io.EOF
			}
			return nil, fmt.Errorf("pcap: reading global header: %w", short)
		}
		hdr, pr.data = pr.data[:globalHeaderLen], pr.data[globalHeaderLen:]
		pr.left = len(pr.data)
	} else {
		if l, ok := r.(interface{ Len() int }); ok {
			pr.left = l.Len() - globalHeaderLen
		}
		pr.r = bufio.NewReader(r)
		hdr = make([]byte, globalHeaderLen)
		if _, err := io.ReadFull(pr.r, hdr); err != nil {
			return nil, fmt.Errorf("pcap: reading global header: %w", err)
		}
	}
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
	pr.link = pr.order.Uint32(hdr[20:24])
	if pr.link != LinkTypeRaw {
		return nil, fmt.Errorf("pcap: unsupported link type %d, want %d (raw IPv4)", pr.link, LinkTypeRaw)
	}
	return pr, nil
}

// InPlace reports whether the reader reads its capture in place, so that
// the packets it fills alias the capture.
func (pr *Reader) InPlace() bool { return pr.r == nil }

// Next returns the next packet, or io.EOF at end of capture. A streaming
// reader allocates a fresh Data buffer per call, and an in-place one
// aliases the capture, so callers may retain packets freely; hot decode
// loops over a streaming reader should prefer NextInto with a pooled
// packet.
func (pr *Reader) Next() (Packet, error) {
	var p Packet
	if err := pr.NextInto(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// recordHeaderLen is the per-packet record header size; globalHeaderLen
// the file header. minPacketLen is the smallest raw-IPv4 packet this
// package emits (an IPv4+UDP header with no payload) — together they
// bound how many packets a capture of a known byte size can hold.
// maxPacketLen is the largest: the reader accepts only LINKTYPE_RAW, and
// an IPv4 packet's total length is a 16-bit field.
const (
	globalHeaderLen = 24
	recordHeaderLen = 16
	minPacketLen    = ipv4HeaderLen + udpHeaderLen
	maxPacketLen    = 65535
)

// NextInto decodes the next packet into p, or returns io.EOF at end of
// capture. The previous contents of p are overwritten. A streaming
// reader reuses p.Data's capacity, so anything aliasing the old p.Data
// (lazy Segment payload slices included) must be consumed or copied
// before the next call. An in-place reader points p.Data into the
// capture, capacity capped at the packet, and leaves the old buffer
// alone; such a packet must not go back to the packet pool, whose next
// streaming fill would write into the capture. p.OrigLen is the packet's
// wire length; a snapped record's p.Data holds its headers only.
func (pr *Reader) NextInto(p *Packet) error {
	var hdr []byte
	if pr.r == nil {
		if len(pr.data) < recordHeaderLen {
			if len(pr.data) == 0 {
				return io.EOF
			}
			return fmt.Errorf("pcap: reading record header: %w", io.ErrUnexpectedEOF)
		}
		hdr = pr.data[:recordHeaderLen]
	} else {
		if _, err := io.ReadFull(pr.r, pr.rec[:]); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("pcap: reading record header: %w", err)
		}
		hdr = pr.rec[:]
	}
	capLen, origLen, err := pr.record(hdr)
	if err != nil {
		return err
	}
	ts := time.Unix(int64(pr.order.Uint32(hdr[0:4])), int64(pr.order.Uint32(hdr[4:8]))*1000).UTC()
	if pr.r == nil {
		end := recordHeaderLen + capLen
		p.Data = pr.data[recordHeaderLen:end:end]
		pr.data = pr.data[end:]
	} else {
		if cap(p.Data) < capLen {
			p.Data = make([]byte, capLen)
		} else {
			p.Data = p.Data[:capLen]
		}
		if _, err := io.ReadFull(pr.r, p.Data); err != nil {
			return fmt.Errorf("pcap: reading packet data: %w", err)
		}
	}
	if capLen < origLen {
		// The one kind of short record the capture writes (DESIGN.md §1):
		// the whole IPv4 and TCP headers, options included, of a segment
		// whose IPv4 total length is the original length. The decoder
		// accepts a short record only as that.
		var seg Segment
		if err := DecodeSegmentInto(&seg, p.Data, origLen); err != nil {
			return fmt.Errorf("%w: short record: %w", ErrCorruptCapture, err)
		}
	}
	p.Timestamp, p.OrigLen = ts, origLen
	return nil
}

// record checks a record header and returns the captured length of the
// packet that follows it and its original length. Every length check
// runs before the packet is sized or sliced: a forged header must not
// make the reader allocate what it declares.
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
	if pr.left >= 0 {
		pr.left -= recordHeaderLen
		if capLen > pr.left {
			// The capture ends inside this record: the error the read
			// would return, without sizing a buffer for the missing bytes.
			return 0, 0, fmt.Errorf("pcap: reading packet data: %w", io.ErrUnexpectedEOF)
		}
		pr.left -= capLen
	}
	return capLen, origLen, nil
}

// readAllPresizeCap bounds the up-front ReadAll allocation (entries, not
// bytes) so a pathological size hint cannot reserve unbounded memory.
const readAllPresizeCap = 1 << 20

// ReadAll drains the remaining packets into memory. When the size of the
// source is known (a View, bytes.Reader, bytes.Buffer, strings.Reader),
// the result slice is pre-sized from it — the pcap global header has no
// packet-count field, so the stream length bound (every record is at
// least a record header plus a minimum packet) is the best available —
// and never reallocates. Sources without a length (files, network)
// fall back to append growth; truly large captures should iterate the
// streaming Reader instead of materializing every packet.
func (pr *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	if pr.left > 0 {
		est := pr.left / (recordHeaderLen + minPacketLen)
		if est > readAllPresizeCap {
			est = readAllPresizeCap
		}
		out = make([]Packet, 0, est)
	}
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
