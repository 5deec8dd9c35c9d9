package simnet

import "repro/internal/cell"

// DeliveredByVC returns the number of cells delivered to the destination
// host on the open circuit vc so far (0 for unknown circuits: the count is
// freed with the circuit).
func (n *Network) DeliveredByVC(vc cell.VCI) int64 {
	if c, err := n.find(vc); err == nil {
		return c.delivered
	}
	return 0
}
