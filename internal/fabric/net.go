package fabric

import (
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/switchnode"
	"repro/internal/topology"
)

// NetConfig assembles a simulated fat-tree fabric.
type NetConfig struct {
	// Fabric dimensions the fat-tree (see topology.FatTreeConfig).
	Fabric topology.FatTreeConfig
	// Switch configures every switch. N defaults to the fabric radix so
	// the crossbar matches the port count.
	Switch switchnode.Config
	// IngressWindow / Tracer / Obs pass through to simnet.
	IngressWindow int
	Tracer        simnet.Tracer
	Obs           *obs.Registry
}

// Net is a fat-tree on the simulator: the generated graph, its pod/spine
// partition (the scope rule of hierarchical reconfiguration), and the live
// network.
type Net struct {
	G    *topology.Graph
	Info *topology.FatTreeInfo
	Part *Partition
	Sim  *simnet.Network
}

// NewNet generates the fat-tree, derives its partition, and boots a
// simnet.Network over it. Quiescent pods cost nothing per slot: their
// switches sleep (see simnet's wake-set engine).
func NewNet(cfg NetConfig) (*Net, error) {
	g, info, err := topology.FatTree(cfg.Fabric)
	if err != nil {
		return nil, err
	}
	part, err := NewPartition(g)
	if err != nil {
		return nil, err
	}
	if cfg.Switch.N == 0 {
		cfg.Switch.N = info.Config.Radix
	}
	sim, err := simnet.New(simnet.Config{
		Topology:      g,
		Switch:        cfg.Switch,
		IngressWindow: cfg.IngressWindow,
		Tracer:        cfg.Tracer,
		Obs:           cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &Net{G: g, Info: info, Part: part, Sim: sim}, nil
}

// Router builds an up*/down* router rooted at the fabric's canonical root
// spine, excluding the given dead links (nil = all live).
func (n *Net) Router(dead map[topology.LinkID]bool) (*routing.Router, error) {
	return routing.NewRouter(n.G, n.Info.Root, dead)
}
