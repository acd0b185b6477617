package nets

import (
	"fmt"
	"net/netip"

	"libspector/internal/pcap"
)

// ackSpacing is how many data segments one pure ACK acknowledges. Modern
// stacks with GRO/LRO coalescing emit far fewer ACKs than the textbook
// every-other-segment rule; captures on emulated NICs show similar spacing.
const ackSpacing = 8

// Conn is an established simulated TCP connection.
type Conn struct {
	stack  *Stack
	tuple  pcap.FourTuple
	domain string

	seq     uint32 // next local sequence number
	peerSeq uint32 // next remote sequence number
	closed  bool

	sentPayload int64
	rcvdPayload int64
}

// Tuple returns the connection's socket-pair parameters — what the shared
// library exposes via getsockname/getpeername (§II-B2b).
func (c *Conn) Tuple() pcap.FourTuple { return c.tuple }

// LocalAddr mirrors getsockname.
func (c *Conn) LocalAddr() (netip.Addr, uint16) { return c.tuple.SrcIP, c.tuple.SrcPort }

// RemoteAddr mirrors getpeername.
func (c *Conn) RemoteAddr() (netip.Addr, uint16) { return c.tuple.DstIP, c.tuple.DstPort }

// Domain returns the DNS name this connection was dialed with ("" for
// direct-to-IP connections).
func (c *Conn) Domain() string { return c.domain }

// SentPayload and ReceivedPayload report cumulative application payload
// bytes (excluding headers) in each direction.
func (c *Conn) SentPayload() int64     { return c.sentPayload }
func (c *Conn) ReceivedPayload() int64 { return c.rcvdPayload }

// Closed reports whether Close has completed.
func (c *Conn) Closed() bool { return c.closed }

// emit records one TCP packet on the connection, encoded straight into
// its capture record; sum is the payload's partial checksum. The capture
// keeps the payload of each direction's first payload-bearing segment,
// the one attribution reads, and of no later one: after it, a record
// holds the IPv4 and TCP headers only, its original length the whole
// packet's (DESIGN.md §1). Send, Receive and ReceiveN count a segment's
// payload after emitting it, so a direction's count is zero exactly
// until its first payload is captured.
func (c *Conn) emit(t pcap.FourTuple, flags uint8, payload []byte, sum pcap.Sum) error {
	outbound := t.SrcIP == c.stack.cfg.LocalAddr
	var seq, ack uint32
	moved := c.rcvdPayload
	if outbound {
		seq, ack = c.seq, c.peerSeq
		moved = c.sentPayload
	} else {
		seq, ack = c.peerSeq, c.seq
	}
	n, err := pcap.TCPLen(t, len(payload))
	if err != nil {
		return fmt.Errorf("nets: encoding TCP packet on %s: %w", c.tuple, err)
	}
	keep := n
	if moved > 0 {
		keep = n - len(payload)
	}
	pkt, err := c.stack.record(n, keep, pcap.ProtoTCP, false)
	if err != nil {
		return err
	}
	if pkt != nil {
		pcap.PutTCP(pkt, t, flags, seq, ack, payload, sum)
	}
	advance := uint32(len(payload))
	if flags&(pcap.FlagSYN|pcap.FlagFIN) != 0 {
		advance++
	}
	if outbound {
		c.seq += advance
	} else {
		c.peerSeq += advance
	}
	return nil
}

// Send transmits application payload from the device to the peer, slicing
// it into MSS-sized segments. The peer acknowledges every ackSpacing-th
// segment (coalesced ACKs).
func (c *Conn) Send(payload []byte) error {
	if c.closed {
		return fmt.Errorf("nets: send on closed connection %s", c.tuple)
	}
	return c.transfer(payload, true)
}

// Receive transmits payload from the peer to the device.
func (c *Conn) Receive(payload []byte) error {
	if c.closed {
		return fmt.Errorf("nets: receive on closed connection %s", c.tuple)
	}
	return c.transfer(payload, false)
}

// ReceiveN synthesizes n payload bytes from the peer without the caller
// materializing them; content is a deterministic filler pattern.
func (c *Conn) ReceiveN(n int64) error {
	if n < 0 {
		return fmt.Errorf("nets: negative receive size %d", n)
	}
	if c.closed {
		return fmt.Errorf("nets: receive on closed connection %s", c.tuple)
	}
	if c.stack.filler == nil {
		c.stack.filler = fillerSegment(c.stack.mss)
		c.stack.fillerSum = pcap.SumOf(c.stack.filler)
	}
	buf := c.stack.filler
	segIdx := 0
	for n > 0 {
		chunk := int64(c.stack.mss)
		if chunk > n {
			chunk = n
		}
		sum := c.stack.fillerSum
		if chunk < int64(len(buf)) {
			sum = pcap.SumOf(buf[:chunk])
		}
		if err := c.emit(c.tuple.Reverse(), pcap.FlagACK|pcap.FlagPSH, buf[:chunk], sum); err != nil {
			return err
		}
		c.rcvdPayload += chunk
		n -= chunk
		segIdx++
		// Stretch ACK: acknowledge every fourth segment and the last one
		// (LRO-style coalescing on the emulated NIC).
		if segIdx%ackSpacing == 0 || n == 0 {
			if err := c.emit(c.tuple, pcap.FlagACK, nil, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Conn) transfer(payload []byte, outbound bool) error {
	segIdx := 0
	for off := 0; off < len(payload); {
		end := off + c.stack.mss
		if end > len(payload) {
			end = len(payload)
		}
		dataDir, ackDir := c.tuple, c.tuple.Reverse()
		if !outbound {
			dataDir, ackDir = ackDir, dataDir
		}
		seg := payload[off:end]
		if err := c.emit(dataDir, pcap.FlagACK|pcap.FlagPSH, seg, pcap.SumOf(seg)); err != nil {
			return err
		}
		if outbound {
			c.sentPayload += int64(end - off)
		} else {
			c.rcvdPayload += int64(end - off)
		}
		segIdx++
		last := end == len(payload)
		if segIdx%ackSpacing == 0 || last {
			if err := c.emit(ackDir, pcap.FlagACK, nil, 0); err != nil {
				return err
			}
		}
		off = end
	}
	return nil
}

// Close runs the FIN handshake and marks the connection closed. Closing an
// already-closed connection is a no-op, matching socket semantics.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	if err := c.emit(c.tuple, pcap.FlagFIN|pcap.FlagACK, nil, 0); err != nil {
		return err
	}
	if err := c.emit(c.tuple.Reverse(), pcap.FlagFIN|pcap.FlagACK, nil, 0); err != nil {
		return err
	}
	if err := c.emit(c.tuple, pcap.FlagACK, nil, 0); err != nil {
		return err
	}
	c.closed = true
	return nil
}

// fillerSegment builds a deterministic payload pattern of the given size.
func fillerSegment(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + i%26)
	}
	return buf
}
