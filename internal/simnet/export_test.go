package simnet

import (
	"reflect"

	"repro/internal/cell"
	"repro/internal/topology"
)

// DeliveredByVC returns the number of cells delivered to the destination
// host on the open circuit vc so far (0 for unknown circuits: the count is
// freed with the circuit).
func (n *Network) DeliveredByVC(vc cell.VCI) int64 {
	if c, err := n.find(vc); err == nil {
		return c.delivered
	}
	return 0
}

// builtOnFirstUse reports whether switch id has built the two pieces of
// state a switch builds on first use: its frame schedule's slot arrays (on
// the first reservation) and its PIM matcher's engine and random source (on
// the first matching). It reads the unexported fields through reflect and
// does not wake the switch.
func (n *Network) builtOnFirstUse(id topology.NodeID) (frameArrays, pimEngine bool) {
	sw := reflect.ValueOf(n.switches[id]).Elem()
	frame := sw.FieldByName("frame").Elem()
	pim := sw.FieldByName("matcher").Elem().Elem()
	return !frame.FieldByName("outOf").IsNil(), !pim.FieldByName("eng").IsNil()
}
