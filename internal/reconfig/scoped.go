package reconfig

import (
	"errors"

	"repro/internal/topology"
)

// This file implements the paper's proposed §2 optimization:
//
//	"In AN1, all switches must collaborate in a reconfiguration... This is
//	 acceptable in small networks, but is unattractive for networks
//	 containing thousands of switches. Fortunately, it should often be
//	 possible to restrict participation to switches 'near' the failing
//	 component."
//
// RunScoped runs the same three-phase protocol, but only among the
// switches within a BFS radius of the triggering switches. Participants
// learn the complete topology of the region (including its boundary
// links); everyone else keeps their previous view, and MergePatch folds
// the regional result into a stale global view.

// Region is the set of switches participating in a scoped reconfiguration.
type Region map[topology.NodeID]bool

// RegionOf computes the switches within `radius` hops of any trigger node
// over the live switch topology (radius 0 = just the triggers).
func (r *Runner) RegionOf(triggers []Trigger, radius int) Region {
	region := make(Region)
	frontier := make([]topology.NodeID, 0, len(triggers))
	for _, tr := range triggers {
		if _, ok := r.own[tr.Node]; ok && !region[tr.Node] {
			region[tr.Node] = true
			frontier = append(frontier, tr.Node)
		}
	}
	for hop := 0; hop < radius; hop++ {
		var next []topology.NodeID
		for _, n := range frontier {
			for _, nb := range r.adj[n] {
				if !region[nb] {
					region[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	return region
}

// RunScoped executes a reconfiguration restricted to the given region.
// Every trigger must lie inside the region. The returned views cover only
// region members, and each view's Links are the facts visible from inside
// the region: all live links with at least one endpoint there (boundary
// links included, so the region splices cleanly into a global view).
func (r *Runner) RunScoped(triggers []Trigger, region Region) (*Result, error) {
	if len(region) == 0 {
		return nil, errors.New("reconfig: empty region")
	}
	return r.runLossFree(triggers, region)
}

// MergePatch folds a scoped reconfiguration's regional view into a stale
// global link list: facts about the region are replaced wholesale (any old
// link with an endpoint in the region is dropped unless re-reported), and
// facts wholly outside the region are kept.
func MergePatch(global []LinkRec, region Region, patch []LinkRec) []LinkRec {
	set := make(map[LinkRec]bool, len(global)+len(patch))
	for _, rec := range global {
		if region[rec.A] || region[rec.B] {
			continue // superseded by the patch
		}
		set[rec] = true
	}
	for _, rec := range patch {
		set[rec] = true
	}
	return recSet(set)
}
