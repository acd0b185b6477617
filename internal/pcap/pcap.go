// Package pcap implements the libpcap capture-file format together with the
// IPv4, TCP, UDP and DNS wire encodings the simulated network stack emits.
//
// Captures written by this package are genuine pcap files (magic
// 0xa1b2c3d4, version 2.4, LINKTYPE_RAW) — the attribution pipeline reads
// them back cold, exactly as the paper's offline analysis traverses the
// packet capture of each app run (§III-E).
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

// ErrCorruptCapture marks a record header no valid capture of this
// format can hold: a length beyond the snap length or beyond the largest
// IPv4 packet, or a truncated packet. The reader refuses it before
// allocating for it. A record longer than what is left of a source of
// known size fails as io.ErrUnexpectedEOF, also before allocating.
var ErrCorruptCapture = errors.New("pcap: corrupt capture")

// Packet is one captured packet: a timestamp plus raw bytes starting at the
// IPv4 header.
type Packet struct {
	Timestamp time.Time
	Data      []byte
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

// WritePacket appends one packet record. It refuses a packet the Reader
// would: one larger than an IPv4 packet can be.
func (pw *Writer) WritePacket(p Packet) error {
	if len(p.Data) > maxPacketLen {
		return fmt.Errorf("pcap: packet of %d bytes exceeds the IPv4 maximum %d", len(p.Data), maxPacketLen)
	}
	rec := pw.grow(recordHeaderLen + len(p.Data))
	ts := p.Timestamp
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(p.Data)))
	copy(rec[recordHeaderLen:], p.Data)
	return nil
}

// Bytes returns the capture written so far. It aliases the writer's
// buffer, whose capacity a later NewWriter can reuse.
func (pw *Writer) Bytes() []byte { return pw.buf }

// Reader iterates packets out of a pcap file. It is the large-capture
// path: packets stream one at a time (NextInto reuses the caller's
// buffer), so memory stays O(largest packet) regardless of capture
// size. ReadAll is a convenience for captures known to fit in memory.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	snapLen uint32
	link    uint32
	// left is the number of source bytes not yet consumed when the source
	// exposed Len() (bytes.Reader and friends), else -1. It bounds the
	// record a header may declare, and — the pcap global header carries
	// no packet count — it is the only sizing signal ReadAll has.
	left int
	// rec is the reader-owned record-header scratch buffer. A local
	// array would escape through the io.ReadFull interface call and cost
	// one heap allocation per packet on the NextInto hot path.
	rec [recordHeaderLen]byte
}

// NewReader parses the global header and prepares packet iteration.
func NewReader(r io.Reader) (*Reader, error) {
	left := -1
	if l, ok := r.(interface{ Len() int }); ok {
		left = l.Len() - globalHeaderLen
	}
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{r: br, left: left}
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

// Next returns the next packet, or io.EOF at end of capture. Each call
// allocates a fresh Data buffer, so callers may retain packets freely;
// hot decode loops should prefer NextInto with a pooled packet.
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

// NextInto decodes the next packet into p, reusing p.Data's capacity,
// or returns io.EOF at end of capture. The previous contents of p are
// overwritten; anything aliasing the old p.Data (lazy Segment payload
// slices included) must be consumed or copied before the next call.
func (pr *Reader) NextInto(p *Packet) error {
	if _, err := io.ReadFull(pr.r, pr.rec[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := pr.order.Uint32(pr.rec[0:4])
	usec := pr.order.Uint32(pr.rec[4:8])
	capLen := pr.order.Uint32(pr.rec[8:12])
	origLen := pr.order.Uint32(pr.rec[12:16])
	// Every length check runs before the buffer below is sized: a forged
	// header must not make the reader allocate what it declares.
	if capLen > pr.snapLen {
		return fmt.Errorf("%w: captured length %d exceeds snap length %d", ErrCorruptCapture, capLen, pr.snapLen)
	}
	if capLen > maxPacketLen {
		return fmt.Errorf("%w: captured length %d exceeds the IPv4 maximum %d", ErrCorruptCapture, capLen, maxPacketLen)
	}
	if capLen != origLen {
		return fmt.Errorf("%w: truncated packet (captured %d of %d bytes)", ErrCorruptCapture, capLen, origLen)
	}
	if pr.left >= 0 {
		pr.left -= recordHeaderLen
		if int(capLen) > pr.left {
			// The capture ends inside this record: the error the read below
			// would return, without sizing a buffer for the missing bytes.
			return fmt.Errorf("pcap: reading packet data: %w", io.ErrUnexpectedEOF)
		}
		pr.left -= int(capLen)
	}
	if uint32(cap(p.Data)) < capLen {
		p.Data = make([]byte, capLen)
	} else {
		p.Data = p.Data[:capLen]
	}
	if _, err := io.ReadFull(pr.r, p.Data); err != nil {
		return fmt.Errorf("pcap: reading packet data: %w", err)
	}
	p.Timestamp = time.Unix(int64(sec), int64(usec)*1000).UTC()
	return nil
}

// readAllPresizeCap bounds the up-front ReadAll allocation (entries, not
// bytes) so a pathological size hint cannot reserve unbounded memory.
const readAllPresizeCap = 1 << 20

// ReadAll drains the remaining packets into memory. When the source
// exposed its byte length (bytes.Reader, bytes.Buffer, strings.Reader),
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
