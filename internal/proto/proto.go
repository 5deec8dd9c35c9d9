// Package proto defines the wire encoding of AN2's inter-switch control
// messages: the reconfiguration protocol's invitations, acknowledgments,
// reports, and distributions. On real AN1/AN2 hardware these travel as
// packets between line-card processors; encoding them gives the simulated
// control plane a faithful serialization boundary (and the reconfiguration
// runners round-trip every message through this codec, so a malformed
// message can never be "accidentally" understood). The control links the
// encoded messages cross are NOT reliable — package ctrlnet injects loss,
// duplication, reordering, and bit corruption — so the trailing CRC is
// load-bearing: a corrupted-in-flight image must fail Unmarshal, and the
// event loop counts each rejection.
//
// Wire format (big-endian):
//
//	byte 0      version (1)
//	byte 1      kind
//	bytes 2-9   epoch
//	bytes 10-17 initiator UID
//	bytes 18-21 from (node id, int32)
//	bytes 22-29 virtual timestamp (µs)
//	byte 30     flags (bit 0: accept)
//	bytes 31-34 depth (int32)
//	bytes 35-38 link count (uint32)
//	then        link records, 8 bytes each (two int32 node ids)
//	last 4      CRC-32 (IEEE) over everything before it
//
// Version 2 extends the header with a tracing context between the link
// count and the link records:
//
//	bytes 39-46 trace id (uint64)
//	bytes 47-54 parent span id (uint64)
//
// Encoding is canonical: Marshal emits version 2 exactly when TraceID or
// Span is nonzero, and Unmarshal rejects a version-2 frame whose trace
// fields are both zero. Old (version 1) frames therefore still decode,
// new frames without tracing are byte-identical to version 1, and every
// accepted byte string round-trips to itself — the property the decode
// fuzzer enforces.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Version is the base protocol version (frames without trace context).
const Version = 1

// VersionTraced is the extended version carrying a trace id and parent
// span id. Marshal selects it automatically; see the package comment.
const VersionTraced = 2

// Kind identifies a control message type.
type Kind uint8

// Message kinds. Values are wire-stable. Kinds 1-4 are the
// reconfiguration protocol; kinds 5-12 are the VC service's
// tenant-session protocol (package svc), which reuses this frame — same
// header, same trailing CRC — with the fields repurposed per kind:
// Epoch carries the tenant id, Initiator the request nonce, Depth the
// requested rate / granted VCI / cell count / refusal code / lease ms,
// Accept the grant flag, From the server incarnation (client requests
// echo it; traffic carries the VCI there instead), and Links[0] the
// (src, dst) host pair. KindLease is the session heartbeat; KindDrain
// toggles the server's drain mode. See package svc for the per-kind
// field contracts.
const (
	KindInvite Kind = iota + 1
	KindAck
	KindReport
	KindDistribute
	KindHello
	KindVCRequest
	KindVCReply
	KindVCClose
	KindTraffic
	KindBye
	KindLease
	KindDrain
	kindMax
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindInvite:
		return "invite"
	case KindAck:
		return "ack"
	case KindReport:
		return "report"
	case KindDistribute:
		return "distribute"
	case KindHello:
		return "hello"
	case KindVCRequest:
		return "vc-request"
	case KindVCReply:
		return "vc-reply"
	case KindVCClose:
		return "vc-close"
	case KindTraffic:
		return "traffic"
	case KindBye:
		return "bye"
	case KindLease:
		return "lease"
	case KindDrain:
		return "drain"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// LinkRec is one topology fact: an undirected link between two nodes.
type LinkRec struct {
	A, B int32
}

// Message is a decoded control message.
type Message struct {
	Kind      Kind
	Epoch     uint64
	Initiator uint64
	From      int32
	VTimeUS   int64
	Accept    bool
	Depth     int32
	// TraceID and Span are the distributed-tracing context: TraceID
	// names the logical client operation (stable across retransmits and
	// re-attach), Span the individual attempt. Zero means untraced; a
	// message with either field nonzero is encoded as a version-2 frame.
	TraceID uint64
	Span    uint64
	Links   []LinkRec
}

const (
	headerSize   = 39
	traceExtSize = 16
	linkRecSize  = 8
	crcSize      = 4
)

// MaxLinks bounds the topology payload (a 16-port switch network of any
// realistic size fits comfortably).
const MaxLinks = 1 << 20

// Decoding errors.
var (
	ErrShort     = errors.New("proto: message too short")
	ErrVersion   = errors.New("proto: unsupported version")
	ErrKind      = errors.New("proto: unknown message kind")
	ErrChecksum  = errors.New("proto: checksum mismatch")
	ErrTooBig    = errors.New("proto: too many link records")
	ErrTrailing  = errors.New("proto: trailing bytes")
	ErrCanonical = errors.New("proto: non-canonical encoding")
)

// Marshal encodes the message.
func Marshal(m *Message) ([]byte, error) {
	if m.Kind == 0 || m.Kind >= kindMax {
		return nil, fmt.Errorf("%w: %d", ErrKind, m.Kind)
	}
	if len(m.Links) > MaxLinks {
		return nil, fmt.Errorf("%w: %d", ErrTooBig, len(m.Links))
	}
	traced := m.TraceID|m.Span != 0
	hdr := headerSize
	if traced {
		hdr += traceExtSize
	}
	buf := make([]byte, hdr+linkRecSize*len(m.Links)+crcSize)
	buf[0] = Version
	if traced {
		buf[0] = VersionTraced
	}
	buf[1] = byte(m.Kind)
	binary.BigEndian.PutUint64(buf[2:], m.Epoch)
	binary.BigEndian.PutUint64(buf[10:], m.Initiator)
	binary.BigEndian.PutUint32(buf[18:], uint32(m.From))
	binary.BigEndian.PutUint64(buf[22:], uint64(m.VTimeUS))
	if m.Accept {
		buf[30] = 1
	}
	binary.BigEndian.PutUint32(buf[31:], uint32(m.Depth))
	binary.BigEndian.PutUint32(buf[35:], uint32(len(m.Links)))
	if traced {
		binary.BigEndian.PutUint64(buf[39:], m.TraceID)
		binary.BigEndian.PutUint64(buf[47:], m.Span)
	}
	off := hdr
	for _, l := range m.Links {
		binary.BigEndian.PutUint32(buf[off:], uint32(l.A))
		binary.BigEndian.PutUint32(buf[off+4:], uint32(l.B))
		off += linkRecSize
	}
	binary.BigEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	return buf, nil
}

// Unmarshal decodes and verifies a message.
func Unmarshal(data []byte) (*Message, error) {
	m, links, err := DecodeHeader(data)
	if err != nil {
		return nil, err
	}
	if n := links.Len(); n > 0 {
		m.Links = make([]LinkRec, n)
		for i := range m.Links {
			m.Links[i] = links.At(i)
		}
	}
	return &m, nil
}

// LinkSection is a frame's link records as they sit on the wire.
type LinkSection []byte

// Len returns the number of records in the section.
func (s LinkSection) Len() int { return len(s) / linkRecSize }

// At decodes record i.
func (s LinkSection) At(i int) LinkRec {
	off := i * linkRecSize
	return LinkRec{A: int32(binary.BigEndian.Uint32(s[off:])), B: int32(binary.BigEndian.Uint32(s[off+4:]))}
}

// SectionOf returns the link section of a frame Marshal encoded with n
// links, without verifying anything: the caller made the frame.
func SectionOf(frame []byte, n int) LinkSection {
	end := len(frame) - crcSize
	return LinkSection(frame[end-n*linkRecSize : end])
}

// DecodeHeader verifies a frame exactly as Unmarshal does and decodes
// everything but its link records, which it returns undecoded. The section
// aliases data. Byte-equal sections decode to equal records, so a caller
// that has decoded one section may reuse the records for the next equal one.
func DecodeHeader(data []byte) (Message, LinkSection, error) {
	if len(data) < headerSize+crcSize {
		return Message{}, nil, fmt.Errorf("%w: %d bytes", ErrShort, len(data))
	}
	body := data[:len(data)-crcSize]
	want := binary.BigEndian.Uint32(data[len(data)-crcSize:])
	if crc32.ChecksumIEEE(body) != want {
		return Message{}, nil, ErrChecksum
	}
	if body[0] != Version && body[0] != VersionTraced {
		return Message{}, nil, fmt.Errorf("%w: %d", ErrVersion, body[0])
	}
	traced := body[0] == VersionTraced
	hdr := headerSize
	if traced {
		hdr += traceExtSize
	}
	kind := Kind(body[1])
	if kind == 0 || kind >= kindMax {
		return Message{}, nil, fmt.Errorf("%w: %d", ErrKind, body[1])
	}
	n := binary.BigEndian.Uint32(body[35:])
	if n > MaxLinks {
		return Message{}, nil, fmt.Errorf("%w: %d", ErrTooBig, n)
	}
	wantLen := hdr + int(n)*linkRecSize
	if len(body) < wantLen {
		return Message{}, nil, fmt.Errorf("%w: %d links in %d bytes", ErrShort, n, len(body))
	}
	if len(body) > wantLen {
		return Message{}, nil, fmt.Errorf("%w: %d extra", ErrTrailing, len(body)-wantLen)
	}
	m := Message{
		Kind:      kind,
		Epoch:     binary.BigEndian.Uint64(body[2:]),
		Initiator: binary.BigEndian.Uint64(body[10:]),
		From:      int32(binary.BigEndian.Uint32(body[18:])),
		VTimeUS:   int64(binary.BigEndian.Uint64(body[22:])),
		Accept:    body[30]&1 != 0,
		Depth:     int32(binary.BigEndian.Uint32(body[31:])),
	}
	if traced {
		m.TraceID = binary.BigEndian.Uint64(body[39:])
		m.Span = binary.BigEndian.Uint64(body[47:])
		if m.TraceID|m.Span == 0 {
			// A v2 frame without trace context has a shorter v1
			// encoding; rejecting it keeps encodings canonical.
			return Message{}, nil, fmt.Errorf("%w: traced frame with zero trace", ErrCanonical)
		}
	}
	return m, LinkSection(body[hdr:]), nil
}
