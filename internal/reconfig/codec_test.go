package reconfig

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/ctrlnet"
	"repro/internal/proto"
	"repro/internal/topology"
)

// distributeWire encodes a distribute carrying links, as switch from sends it.
func distributeWire(t *testing.T, from topology.NodeID, links []LinkRec) []byte {
	t.Helper()
	w, err := encodeMessage(message{kind: kindDistribute, tag: Tag{Epoch: 2, Initiator: 7}, from: from, links: links})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// The decode cache holds one section. Two lists that alternate must each
// decode to themselves every time, a byte-equal section must be served the
// cached slice, and a different one never.
func TestLinkCacheAlternatingSections(t *testing.T) {
	a := []LinkRec{{0, 1}, {1, 2}, {2, 3}}
	b := []LinkRec{{0, 1}, {1, 2}, {2, 4}} // same length, last record differs
	var c linkCache
	var prev []LinkRec
	for i, tc := range []struct {
		links []LinkRec
		hit   bool // byte-equal to the section before it
	}{{a, false}, {b, false}, {a, false}, {b, false}, {b, true}, {a, false}} {
		m, err := decodeMessage(distributeWire(t, topology.NodeID(i), tc.links), &c)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.links, tc.links) {
			t.Fatalf("decode %d: got %v, want %v", i, m.links, tc.links)
		}
		if shared := prev != nil && &m.links[0] == &prev[0]; shared != tc.hit {
			t.Fatalf("decode %d: shares the previous slice = %v, want %v", i, shared, tc.hit)
		}
		prev = m.links
	}
}

// A corrupted image fails the CRC before its section is compared: the run
// counts it, the cache keeps what it had, and the repaired run converges on
// the right topology.
func TestCorruptDistributeNeverServedFromCache(t *testing.T) {
	links := []LinkRec{{0, 1}, {1, 2}}
	good := distributeWire(t, 0, links)
	var c linkCache
	if _, err := decodeMessage(good, &c); err != nil {
		t.Fatal(err)
	}
	cached := c
	bad := append([]byte(nil), good...)
	proto.SectionOf(bad, len(links))[0] ^= 1
	if _, err := decodeMessage(bad, &c); !errors.Is(err, proto.ErrChecksum) {
		t.Fatalf("corrupted distribute: err = %v, want %v", err, proto.ErrChecksum)
	}
	if &c.links[0] != &cached.links[0] || !bytes.Equal(c.wire, cached.wire) {
		t.Fatal("a rejected image replaced the cached section")
	}

	g, _, err := topology.FatTree(topology.FatTreeConfig{Radix: 8, Pods: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	tr := &tapTransport{Net: faulty(t, ctrlnet.Config{}), corrupt: proto.KindDistribute}
	ur, err := r.RunOver([]Trigger{{Node: r.LiveSwitches()[0]}}, nil, tr, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if ur.CRCRejects != 1 || ur.Retransmits == 0 || !ur.Converged {
		t.Fatalf("CRCRejects %d, Retransmits %d, converged %v; want 1, >0, true", ur.CRCRejects, ur.Retransmits, ur.Converged)
	}
	want := r.ExpectedLinks()
	for s, v := range ur.Views {
		if !slices.Equal(v.Links, want) {
			t.Fatalf("switch %d learned a wrong topology", s)
		}
	}
}

// Two components reconfigure at once, so their distributes — two different
// link sections — alternate on the one event loop, and the one-entry cache
// misses each time they do. Each switch must still learn exactly its own
// component's list.
func TestTwoComponentsAlternateSections(t *testing.T) {
	g := topology.New()
	ring := func(n int) []topology.NodeID {
		ids := make([]topology.NodeID, n)
		for i := range ids {
			ids[i] = g.AddSwitch("")
		}
		for i := range ids {
			if _, err := g.Connect(ids[i], ids[(i+1)%n], 1); err != nil {
				t.Fatal(err)
			}
		}
		return ids
	}
	left, right := ring(8), ring(8)
	r := mustRunner(t, Config{Topology: g})
	tr := &tapTransport{Net: faulty(t, ctrlnet.Config{})}
	ur, err := r.RunOver([]Trigger{{Node: left[0]}, {Node: right[0]}}, nil, tr, Hardening{})
	if err != nil {
		t.Fatal(err)
	}
	if !ur.Converged {
		t.Fatal("no convergence")
	}
	alternations := 0
	for i := 1; i < len(tr.distributed); i++ {
		if !bytes.Equal(tr.distributed[i], tr.distributed[i-1]) {
			alternations++
		}
	}
	if alternations < 2 {
		t.Fatalf("the two sections alternated %d times on the wire; the test needs >= 2", alternations)
	}
	for _, comp := range [][]topology.NodeID{left, right} {
		var want []LinkRec
		for _, rec := range r.ExpectedLinks() {
			if slices.Contains(comp, rec.A) {
				want = append(want, rec)
			}
		}
		for _, s := range comp {
			if got := ur.Views[s].Links; !slices.Equal(got, want) {
				t.Fatalf("switch %d learned %v, want %v", s, got, want)
			}
		}
	}
}

// tapTransport is a loss-free channel that records the link section of
// every distribute sent over it, and flips one bit in the section of the
// first image of kind corrupt (0: none).
type tapTransport struct {
	*ctrlnet.Net
	corrupt     proto.Kind
	distributed [][]byte
}

func (tt *tapTransport) Send(from, to topology.NodeID, wire []byte, atUS int64) ([]ctrlnet.Delivery, error) {
	m, err := proto.Unmarshal(wire)
	if err != nil {
		return nil, err
	}
	if m.Kind == proto.KindDistribute {
		tt.distributed = append(tt.distributed, proto.SectionOf(wire, len(m.Links)))
	}
	if m.Kind == tt.corrupt {
		tt.corrupt = 0
		wire = append([]byte(nil), wire...)
		proto.SectionOf(wire, len(m.Links))[0] ^= 1
	}
	return tt.Net.Send(from, to, wire, atUS)
}
