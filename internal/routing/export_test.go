package routing

import "repro/internal/topology"

// IsLegal reports whether the switch portion of path obeys up*/down*.
func (r *Router) IsLegal(path []topology.NodeID) bool {
	wentDown := false
	for i := 0; i+1 < len(path); i++ {
		l, ok := r.g.LinkBetween(path[i], path[i+1])
		if !ok || !r.usable(l.ID) {
			return false
		}
		up := r.up(l.ID)
		if up == topology.None {
			continue // host links are not oriented
		}
		goingUp := up == path[i+1]
		if wentDown && goingUp {
			return false
		}
		if !goingUp {
			wentDown = true
		}
	}
	return true
}
