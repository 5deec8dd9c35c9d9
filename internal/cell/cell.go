// Package cell implements ATM-style fixed-size cells as used by AN2,
// together with AAL5-style segmentation and reassembly of variable-length
// packets.
//
// AN2 is compatible with the ATM Forum standard: the network traffics in
// cells of 48 payload bytes plus a 5-byte header. Hosts deal in
// variable-length packets; the host controller disassembles packets into
// cells on transmission and reassembles them on reception (paper, §1).
package cell

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

const (
	// HeaderSize is the size of a cell header in bytes.
	HeaderSize = 5
	// PayloadSize is the size of a cell payload in bytes.
	PayloadSize = 48
	// Size is the total size of a cell on the wire.
	Size = HeaderSize + PayloadSize

	// trailerSize is the size of the AAL5-style reassembly trailer:
	// 2 bytes packet length, 2 bytes reserved, 4 bytes CRC-32.
	trailerSize = 8

	// MaxPacketLen is the largest packet the SAR layer accepts. It is
	// bounded by the 16-bit length field in the reassembly trailer.
	MaxPacketLen = 1<<16 - 1 - trailerSize
)

// VCI identifies a virtual circuit. The header of each cell contains its
// virtual circuit id, which switches look up in a routing table (paper, §1).
type VCI uint32

// maxVCI is the largest VCI representable in the 24 bits the header
// allocates for it (a simplification of ATM's split VPI/VCI fields).
const maxVCI = 1<<24 - 1

// Class distinguishes the two AN2 traffic classes (paper, §1).
type Class uint8

const (
	// BestEffort traffic (ATM Variable Bit Rate) requires no setup and
	// receives no service guarantee.
	BestEffort Class = iota + 1
	// Guaranteed traffic (ATM Continuous Bit Rate) is assured a reserved
	// bandwidth with bounded delay and jitter.
	Guaranteed
)

// String returns the conventional name of the traffic class.
func (c Class) String() string {
	switch c {
	case BestEffort:
		return "best-effort"
	case Guaranteed:
		return "guaranteed"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Cell is a single fixed-size network cell. A Cell is a value type; copying
// it copies the payload.
type Cell struct {
	// VC is the virtual circuit id carried in the header.
	VC VCI
	// EndOfPacket marks the final cell of a packet (the ATM PTI bit used
	// by AAL5).
	EndOfPacket bool
	// Signaling marks a control cell (circuit setup/teardown) that must
	// be delivered to the line-card processor rather than routed in
	// hardware.
	Signaling bool
	// Class is the traffic class of the cell's circuit. It is carried
	// out-of-band in the simulator for convenience; real AN2 derives it
	// from the VC.
	Class Class
	// Payload is the 48-byte cell body.
	Payload [PayloadSize]byte

	// Stamp carries simulation metadata (injection time, sequence) used
	// for measurement only; it is not part of the wire format.
	Stamp Stamp
}

// Stamp is measurement metadata attached to cells by the simulator.
type Stamp struct {
	// EnqueuedAt is the slot at which the cell entered the network.
	EnqueuedAt int64
	// Seq is a per-circuit sequence number, used to verify in-order
	// delivery.
	Seq uint64
	// Circ and Hop locate the cell for the simulator that routes it: the
	// index of its circuit in the network's circuit table and the position
	// on the circuit's path of the switch the cell is at or heading for.
	// Real AN2 indexes a per-port routing table by VCI at every hop; the
	// simulator carries the resolved index instead of looking the VCI up.
	Circ int32
	Hop  int32
}

// header flag bits (byte 3 of the encoded header).
const (
	flagEOP       = 1 << 0
	flagSignaling = 1 << 1
	flagClassBit  = 1 << 2 // set for guaranteed
)

// ErrBadHEC reports a header checksum mismatch on decode.
var ErrBadHEC = errors.New("cell: header error check mismatch")

// ErrVCIRange reports a virtual circuit id that does not fit in the header.
var ErrVCIRange = errors.New("cell: VCI out of range")

// hec computes the 8-bit header error check over the first four header
// bytes. Real ATM uses CRC-8 with polynomial x^8+x^2+x+1; an XOR-fold of a
// CRC-32 preserves the error-detection role in the simulator.
func hec(b []byte) byte {
	s := crc32.ChecksumIEEE(b)
	return byte(s) ^ byte(s>>8) ^ byte(s>>16) ^ byte(s>>24)
}

// Marshal encodes the cell into wire format: 5-byte header followed by the
// 48-byte payload.
func (c *Cell) Marshal() ([]byte, error) {
	if c.VC > maxVCI {
		return nil, fmt.Errorf("%w: %d", ErrVCIRange, c.VC)
	}
	buf := make([]byte, Size)
	buf[0] = byte(c.VC >> 16)
	buf[1] = byte(c.VC >> 8)
	buf[2] = byte(c.VC)
	var flags byte
	if c.EndOfPacket {
		flags |= flagEOP
	}
	if c.Signaling {
		flags |= flagSignaling
	}
	if c.Class == Guaranteed {
		flags |= flagClassBit
	}
	buf[3] = flags
	buf[4] = hec(buf[:4])
	copy(buf[HeaderSize:], c.Payload[:])
	return buf, nil
}

// Unmarshal decodes a cell from wire format, verifying the header checksum.
func Unmarshal(b []byte) (Cell, error) {
	var c Cell
	if len(b) != Size {
		return c, fmt.Errorf("cell: wrong size %d, want %d", len(b), Size)
	}
	if b[4] != hec(b[:4]) {
		return c, ErrBadHEC
	}
	c.VC = VCI(b[0])<<16 | VCI(b[1])<<8 | VCI(b[2])
	flags := b[3]
	c.EndOfPacket = flags&flagEOP != 0
	c.Signaling = flags&flagSignaling != 0
	if flags&flagClassBit != 0 {
		c.Class = Guaranteed
	} else {
		c.Class = BestEffort
	}
	copy(c.Payload[:], b[HeaderSize:])
	return c, nil
}

// Segment splits a packet into cells for the given circuit, appending an
// AAL5-style trailer (length + CRC-32) and padding to a whole number of
// cells. The final cell has EndOfPacket set. Segment never returns an empty
// slice for a valid packet: a zero-length packet still produces one cell
// carrying only the trailer.
func Segment(vc VCI, class Class, packet []byte) ([]Cell, error) {
	return AppendSegments(nil, vc, class, packet)
}

// AppendSegments is Segment writing the packet's cells onto the end of dst
// (a sender's queue) instead of into a fresh slice; it returns the extended
// slice, or dst unchanged with an error.
func AppendSegments(dst []Cell, vc VCI, class Class, packet []byte) ([]Cell, error) {
	if len(packet) > MaxPacketLen {
		return dst, fmt.Errorf("cell: packet length %d exceeds max %d", len(packet), MaxPacketLen)
	}
	if vc > maxVCI {
		return dst, fmt.Errorf("%w: %d", ErrVCIRange, vc)
	}
	// The cells' payloads are packet + pad + trailer, the trailer occupying
	// the last bytes of the last cell.
	nCells := CellsForPacketLen(len(packet))
	dst = slices.Grow(dst, nCells)
	for off := 0; off < nCells*PayloadSize; off += PayloadSize {
		dst = append(dst, Cell{VC: vc, Class: class})
		if off < len(packet) {
			copy(dst[len(dst)-1].Payload[:], packet[off:])
		}
	}
	last := &dst[len(dst)-1]
	last.EndOfPacket = true
	trailer := last.Payload[PayloadSize-trailerSize:]
	binary.BigEndian.PutUint16(trailer[0:2], uint16(len(packet)))
	binary.BigEndian.PutUint32(trailer[4:8], crc32.ChecksumIEEE(packet))
	return dst, nil
}

// maxReassemblyLen is the payload of the longest packet Segment produces:
// a reassembly that reaches it without an end-of-packet cell can never
// complete.
const maxReassemblyLen = (MaxPacketLen + trailerSize + PayloadSize - 1) / PayloadSize * PayloadSize

// Reassembler rebuilds the packets of one virtual circuit from its cells,
// which must arrive in order (AN2 virtual circuits deliver in order); a
// receiver keeps one per circuit. The zero value is ready to use, and its
// buffer is reused from packet to packet.
type Reassembler struct {
	buf []byte
}

// reassembly errors.
var (
	// ErrBadCRC reports a packet whose reassembled body fails the
	// trailer CRC.
	ErrBadCRC = errors.New("cell: reassembled packet CRC mismatch")
	// ErrBadLength reports a trailer length inconsistent with the number
	// of cells received, or cells that ran past the longest packet without
	// an end-of-packet mark.
	ErrBadLength = errors.New("cell: reassembled packet length out of range")
)

// Add feeds the circuit's next cell to the reassembler. When the cell
// completes a packet, Add returns the packet and done=true; the packet
// aliases the reassembler's buffer — or, for a packet of one cell, the cell
// itself, which is verified where it lies — and is valid until the next Add
// or until the cell is overwritten. A reassembly that reaches the longest
// packet's cell count with no end-of-packet cell (a sender that never marks
// one) is abandoned: done=true with ErrBadLength, and the next cell starts
// afresh.
func (r *Reassembler) Add(c *Cell) (packet []byte, done bool, err error) {
	buf := c.Payload[:]
	if len(r.buf) > 0 || !c.EndOfPacket {
		buf = append(r.buf, buf...)
		if !c.EndOfPacket {
			if len(buf) >= maxReassemblyLen {
				r.buf = buf[:0]
				return nil, true, fmt.Errorf("%w: %d cells and no end of packet", ErrBadLength, len(buf)/PayloadSize)
			}
			r.buf = buf
			return nil, false, nil
		}
		r.buf = buf[:0]
	}
	trailer := buf[len(buf)-trailerSize:]
	n := int(binary.BigEndian.Uint16(trailer[0:2]))
	if n > len(buf)-trailerSize || len(buf)-n-trailerSize >= PayloadSize {
		return nil, true, fmt.Errorf("%w: length %d in %d cells", ErrBadLength, n, len(buf)/PayloadSize)
	}
	pkt := buf[:n]
	if crc32.ChecksumIEEE(pkt) != binary.BigEndian.Uint32(trailer[4:8]) {
		return nil, true, ErrBadCRC
	}
	return pkt, true, nil
}

// Partial reports whether a packet is partially reassembled (i.e. the next
// cell continues a packet rather than starting one).
func (r *Reassembler) Partial() bool { return len(r.buf) > 0 }

// Reset discards the partial packet (used when the circuit is torn down or
// rerouted).
func (r *Reassembler) Reset() { r.buf = r.buf[:0] }

// CellsForPacketLen reports how many cells Segment will produce for a
// packet of n bytes. It is useful for sizing buffers and for workload math.
func CellsForPacketLen(n int) int {
	return (n + trailerSize + PayloadSize - 1) / PayloadSize
}
