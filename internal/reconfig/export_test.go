package reconfig

// ExpectedLinks computes the ground-truth live topology the views should
// converge to (live links with at least one live endpoint pair).
func (r *Runner) ExpectedLinks() []LinkRec {
	set := make(map[LinkRec]bool)
	for _, s := range r.switches {
		for _, rec := range r.own[s] {
			set[rec] = true
		}
	}
	return recSet(set)
}
