package schedule

// InputAt returns the input sending to output j in slot t, or -1.
func (s *Schedule) InputAt(t, output int) int {
	if t < 0 || t >= s.slots || output < 0 || output >= s.n || s.inOf == nil {
		return -1
	}
	return int(s.inOf[t*s.n+output])
}

// FreePairs reports, for slot t, whether input i and output j are both
// unreserved — the condition for a best-effort cell to use the slot
// (paper §4).
func (s *Schedule) FreePairs(t, input, output int) bool {
	if t < 0 || t >= s.slots || input < 0 || input >= s.n || output < 0 || output >= s.n {
		return false
	}
	if s.freeIn == nil {
		return true
	}
	return has(s.freeSlots(s.freeIn, input), t) && has(s.freeSlots(s.freeOut, output), t)
}
