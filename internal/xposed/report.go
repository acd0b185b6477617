// Package xposed reimplements the role of the Xposed framework and the
// paper's custom Socket Supervisor module (§II-B2): post hooks on
// socket/connect, stack-trace capture at connect time, dex-based
// translation of stack frames to method type signatures, and one UDP
// report per socket carrying the apk checksum, the socket-pair parameters,
// and the translated stack trace to the data-collection server.
package xposed

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"libspector/internal/codec"
	"libspector/internal/pcap"
)

// Report is the per-socket record the Socket Supervisor emits: "for every
// unique socket that the app creates, the Xposed module includes a sha256
// checksum of the apk file and socket pair parameters along with the
// translated stack trace" (§II-B2).
type Report struct {
	// APKSHA256 is the hex sha256 of the apk package.
	APKSHA256 string `json:"apk_sha256"`
	// Tuple is the connection's socket-pair parameters obtained via
	// getsockname/getpeername.
	Tuple pcap.FourTuple `json:"tuple"`
	// ConnectedAt is the connect timestamp on the device clock.
	ConnectedAt time.Time `json:"connected_at"`
	// StackTrace holds the translated stack, top-first (index 0 is the
	// socket connect frame, as in Listing 1). Frames resolvable in the
	// app's dex are full smali type signatures; framework frames remain
	// dotted qualified names.
	StackTrace []string `json:"stack_trace"`
}

var reportMagic = [4]byte{'L', 'S', 'P', 'R'}

const reportVersion uint16 = 1

// maxReasonableFrames bounds decode allocations against corrupt input.
const maxReasonableFrames = 4096

// Encode serializes the report into the UDP datagram payload format.
func (r *Report) Encode() ([]byte, error) {
	sha, err := hex.DecodeString(r.APKSHA256)
	if err != nil || len(sha) != 32 {
		return nil, fmt.Errorf("xposed: invalid apk sha256 %q", r.APKSHA256)
	}
	if !r.Tuple.SrcIP.Is4() || !r.Tuple.DstIP.Is4() {
		return nil, fmt.Errorf("xposed: report tuple %s is not IPv4", r.Tuple)
	}
	if len(r.StackTrace) == 0 {
		return nil, fmt.Errorf("xposed: report has empty stack trace")
	}
	if len(r.StackTrace) > maxReasonableFrames {
		return nil, fmt.Errorf("xposed: stack trace of %d frames exceeds limit %d", len(r.StackTrace), maxReasonableFrames)
	}

	// 58 fixed bytes, then the frame count and per-frame length varints.
	size := 58 + binary.MaxVarintLen16*(1+len(r.StackTrace))
	for _, frame := range r.StackTrace {
		size += len(frame)
	}
	b := make([]byte, 0, size)
	b = append(b, reportMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, reportVersion)
	b = append(b, sha...)
	src := r.Tuple.SrcIP.As4()
	dst := r.Tuple.DstIP.As4()
	b = append(b, src[:]...)
	b = binary.LittleEndian.AppendUint16(b, r.Tuple.SrcPort)
	b = append(b, dst[:]...)
	b = binary.LittleEndian.AppendUint16(b, r.Tuple.DstPort)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.ConnectedAt.UnixNano()))

	b = binary.AppendUvarint(b, uint64(len(r.StackTrace)))
	for _, frame := range r.StackTrace {
		b = codec.AppendString(b, frame)
	}
	return b, nil
}

// errMalformed is what the cursor's failures (short field, bad varint,
// oversized count, trailing bytes) wrap, keeping them in the package's
// "xposed: ..." error style.
var errMalformed = errors.New("xposed: malformed report")

// DecodeReport parses a datagram payload back into a Report. It is
// strict: a field cut short and bytes after the last frame both fail, so
// a datagram decodes only if it is exactly what Encode emitted.
func DecodeReport(data []byte) (*Report, error) {
	r := codec.NewReader(data, errMalformed)
	if magic := r.Take(len(reportMagic)); r.Err() == nil && [4]byte(magic) != reportMagic {
		return nil, fmt.Errorf("xposed: bad report magic %q", magic)
	}
	if version := r.Uint16(); r.Err() == nil && version != reportVersion {
		return nil, fmt.Errorf("xposed: unsupported report version %d", version)
	}
	rep := &Report{APKSHA256: hex.EncodeToString(r.Take(32))}
	var srcIP, dstIP [4]byte
	copy(srcIP[:], r.Take(4))
	srcPort := r.Uint16()
	copy(dstIP[:], r.Take(4))
	dstPort := r.Uint16()
	rep.Tuple = pcap.FourTuple{
		SrcIP: netip.AddrFrom4(srcIP), SrcPort: srcPort,
		DstIP: netip.AddrFrom4(dstIP), DstPort: dstPort,
	}
	rep.ConnectedAt = time.Unix(0, int64(r.Uint64())).UTC()

	frameCount := r.Length()
	if r.Err() == nil && (frameCount == 0 || frameCount > maxReasonableFrames) {
		return nil, fmt.Errorf("xposed: implausible frame count %d", frameCount)
	}
	rep.StackTrace = make([]string, frameCount)
	for i := range rep.StackTrace {
		rep.StackTrace[i] = r.String()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return rep, nil
}

// DecodeReports decodes a run's datagram payloads in order, for callers
// that attribute one emulator run without a collector in between.
func DecodeReports(raw [][]byte) ([]*Report, error) {
	out := make([]*Report, len(raw))
	for i, payload := range raw {
		rep, err := DecodeReport(payload)
		if err != nil {
			return nil, fmt.Errorf("report %d: %w", i, err)
		}
		out[i] = rep
	}
	return out, nil
}
