package proto

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the decoder. Unmarshal must never
// panic, and anything it accepts must round-trip: re-encoding the decoded
// message reproduces the input byte-for-byte (the wire format has exactly
// one encoding per message). DecodeHeader plus the records of its link
// section must say what Unmarshal says, rejections included: same header,
// same links, same error class. Seeds cover every kind, an empty payload, a
// full payload, and each rejection path.
func FuzzDecode(f *testing.F) {
	seed := func(m *Message) []byte {
		w, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		return w
	}
	f.Add([]byte{})
	f.Add([]byte{Version, 1})
	f.Add(seed(&Message{Kind: KindInvite, Epoch: 3, Initiator: 9, From: 2, VTimeUS: 77, Depth: 1}))
	f.Add(seed(&Message{Kind: KindAck, Epoch: 1, Accept: true}))
	f.Add(seed(&Message{Kind: KindReport, Epoch: 8, Links: []LinkRec{{A: 0, B: 1}, {A: 1, B: 2}}}))
	f.Add(seed(&Message{Kind: KindDistribute, Epoch: 2, Initiator: 4, Links: []LinkRec{{A: 5, B: 6}}}))
	// Version-2 traced frames: with and without links, and one with only
	// the parent span set.
	f.Add(seed(&Message{Kind: KindVCRequest, Epoch: 4, Initiator: 11, TraceID: 0xdeadbeef, Span: 7}))
	f.Add(seed(&Message{Kind: KindVCReply, Epoch: 4, Accept: true, TraceID: 1, Span: 2, Links: []LinkRec{{A: 3, B: 4}}}))
	f.Add(seed(&Message{Kind: KindHello, Epoch: 2, Span: 99}))
	// A non-canonical v2 frame (zero trace fields): must be rejected.
	v1 := seed(&Message{Kind: KindLease, Epoch: 6})
	nc := append(append([]byte(nil), v1[:headerSize]...), make([]byte, traceExtSize)...)
	nc[0] = VersionTraced
	f.Add(appendCRC(nc))
	// A valid image with one bit flipped: the CRC-reject path.
	flipped := seed(&Message{Kind: KindInvite, Epoch: 1})
	flipped[2] ^= 0x80
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		hdr, sec, hdrErr := DecodeHeader(data)
		if class := errClass(err); class != errClass(hdrErr) {
			t.Fatalf("Unmarshal: %v; DecodeHeader: %v", err, hdrErr)
		} else if class != nil {
			return
		}
		if hdr.Links != nil || sec.Len()*linkRecSize != len(sec) || sec.Len() != len(m.Links) {
			t.Fatalf("link section of %d bytes for %d links", len(sec), len(m.Links))
		}
		for i := range m.Links {
			if sec.At(i) != m.Links[i] {
				t.Fatalf("link %d: section %v, Unmarshal %v", i, sec.At(i), m.Links[i])
			}
		}
		hdr.Links = m.Links
		if !reflect.DeepEqual(&hdr, m) {
			t.Fatalf("DecodeHeader %+v, Unmarshal %+v", hdr, *m)
		}
		if !bytes.Equal(SectionOf(data, len(m.Links)), sec) {
			t.Fatal("SectionOf disagrees with DecodeHeader")
		}
		w, err := Marshal(m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(w, data) {
			t.Fatalf("round-trip mismatch:\n in: %x\nout: %x", data, w)
		}
	})
}

// errClass maps a decode error to the sentinel it wraps (nil for success).
func errClass(err error) error {
	for _, class := range []error{ErrShort, ErrVersion, ErrKind, ErrChecksum, ErrTooBig, ErrTrailing, ErrCanonical} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// FuzzEncodeDecode fuzzes structured fields through Marshal∘Unmarshal.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint8(1), uint64(3), uint64(9), int32(2), int64(100), true, int32(1), uint8(2), uint64(0), uint64(0))
	f.Add(uint8(4), uint64(0), uint64(0), int32(-1), int64(-5), false, int32(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(6), uint64(1), uint64(2), int32(3), int64(4), true, int32(5), uint8(1), uint64(0xabc), uint64(0xdef))
	f.Fuzz(func(t *testing.T, kind uint8, epoch, init uint64, from int32, vt int64, accept bool, depth int32, nLinks uint8, trace, span uint64) {
		in := &Message{
			Kind: Kind(kind), Epoch: epoch, Initiator: init,
			From: from, VTimeUS: vt, Accept: accept, Depth: depth,
			TraceID: trace, Span: span,
		}
		for i := uint8(0); i < nLinks; i++ {
			in.Links = append(in.Links, LinkRec{A: int32(i), B: int32(i) + 1})
		}
		w, err := Marshal(in)
		if err != nil {
			if Kind(kind) != 0 && Kind(kind) < kindMax {
				t.Fatalf("valid kind %d rejected: %v", kind, err)
			}
			return
		}
		out, err := Unmarshal(w)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if out.Kind != in.Kind || out.Epoch != in.Epoch || out.Initiator != in.Initiator ||
			out.From != in.From || out.VTimeUS != in.VTimeUS || out.Accept != in.Accept ||
			out.Depth != in.Depth || out.TraceID != in.TraceID || out.Span != in.Span ||
			len(out.Links) != len(in.Links) {
			t.Fatalf("round-trip changed message:\n in: %+v\nout: %+v", in, out)
		}
		for i := range in.Links {
			if in.Links[i] != out.Links[i] {
				t.Fatalf("link %d changed: %v vs %v", i, in.Links[i], out.Links[i])
			}
		}
	})
}
