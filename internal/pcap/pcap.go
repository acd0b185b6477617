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

// Packet is one captured packet: a timestamp plus raw bytes starting at the
// IPv4 header.
type Packet struct {
	Timestamp time.Time
	Data      []byte
}

// Writer streams packets into a pcap file.
type Writer struct {
	w           *bufio.Writer
	wroteHeader bool
	snapLen     uint32
	// rec is the writer-owned record-header scratch buffer, the mirror of
	// Reader.rec: a local array would escape through bufio.Writer.Write
	// and cost one heap allocation per captured packet.
	rec [recordHeaderLen]byte
}

// NewWriter creates a pcap writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), snapLen: DefaultSnapLen}
}

func (pw *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicNumber)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone (hdr[8:12]) and sigfigs (hdr[12:16]) stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pw.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeRaw)
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing global header: %w", err)
	}
	pw.wroteHeader = true
	return nil
}

// WritePacket appends one packet record.
func (pw *Writer) WritePacket(p Packet) error {
	if !pw.wroteHeader {
		if err := pw.writeHeader(); err != nil {
			return err
		}
	}
	if uint32(len(p.Data)) > pw.snapLen {
		return fmt.Errorf("pcap: packet of %d bytes exceeds snap length %d", len(p.Data), pw.snapLen)
	}
	rec := pw.rec[:]
	ts := p.Timestamp
	binary.LittleEndian.PutUint32(rec[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(p.Data)))
	if _, err := pw.w.Write(rec); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := pw.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: writing packet data: %w", err)
	}
	return nil
}

// Flush writes buffered data through to the underlying writer. An empty
// capture still produces a valid pcap file (header only).
func (pw *Writer) Flush() error {
	if !pw.wroteHeader {
		if err := pw.writeHeader(); err != nil {
			return err
		}
	}
	if err := pw.w.Flush(); err != nil {
		return fmt.Errorf("pcap: flushing: %w", err)
	}
	return nil
}

// Reader iterates packets out of a pcap file. It is the large-capture
// path: packets stream one at a time (NextInto reuses the caller's
// buffer), so memory stays O(largest packet) regardless of capture
// size. ReadAll is a convenience for captures known to fit in memory.
type Reader struct {
	r       *bufio.Reader
	order   binary.ByteOrder
	snapLen uint32
	link    uint32
	// sizeHint is the source's byte count after the global header when
	// the source exposed Len() (bytes.Reader and friends), else -1. The
	// pcap global header carries no packet count, so this stream length
	// is the only sizing signal available to ReadAll.
	sizeHint int
	// rec is the reader-owned record-header scratch buffer. A local
	// array would escape through the io.ReadFull interface call and cost
	// one heap allocation per packet on the NextInto hot path.
	rec [recordHeaderLen]byte
}

// NewReader parses the global header and prepares packet iteration.
func NewReader(r io.Reader) (*Reader, error) {
	sizeHint := -1
	if l, ok := r.(interface{ Len() int }); ok {
		sizeHint = l.Len() - globalHeaderLen
	}
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	pr := &Reader{r: br, sizeHint: sizeHint}
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
const (
	globalHeaderLen = 24
	recordHeaderLen = 16
	minPacketLen    = ipv4HeaderLen + udpHeaderLen
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
	if capLen > pr.snapLen {
		return fmt.Errorf("pcap: captured length %d exceeds snap length %d", capLen, pr.snapLen)
	}
	if capLen != origLen {
		return fmt.Errorf("pcap: truncated packet (captured %d of %d bytes)", capLen, origLen)
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
	if pr.sizeHint > 0 {
		est := pr.sizeHint / (recordHeaderLen + minPacketLen)
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
