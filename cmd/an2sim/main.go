// Command an2sim runs an AN2 network simulation: it builds a topology,
// boots the LAN (reconfiguration, routing, bandwidth central), opens a mix
// of best-effort and guaranteed circuits between random host pairs, drives
// traffic, optionally pulls the plug on a switch mid-run, and prints the
// resulting service report.
//
// Usage:
//
//	an2sim -topology src -switches 12 -hosts 24 -slots 20000 -pullplug
//	an2sim -topology torus -circuits 16 -guaranteed 4
//	an2sim -topology file -file lan.json
//
// Observability (see DESIGN.md §11):
//
//	an2sim -http :8080 -hold        # live /metrics, /debug/vars, /debug/pprof
//	an2sim -metrics-out run.prom    # final Prometheus exposition to a file
//	an2sim -trace run.jsonl -trace-hops ... && an2trace run.jsonl
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "an2sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("an2sim", flag.ContinueOnError)
	var (
		topo       = fs.String("topology", "src", "topology family: src, torus, ring, random, file")
		file       = fs.String("file", "", "topology JSON (with -topology file)")
		switches   = fs.Int("switches", 12, "switch count (family-dependent)")
		hosts      = fs.Int("hosts", 16, "host count")
		circuits   = fs.Int("circuits", 8, "best-effort circuits to open")
		guaranteed = fs.Int("guaranteed", 2, "guaranteed circuits to open")
		rate       = fs.Int("rate", 8, "cells/frame per guaranteed circuit")
		slots      = fs.Int64("slots", 20_000, "cell slots to simulate")
		frame      = fs.Int("frame", 128, "frame size in slots")
		pullplug   = fs.Bool("pullplug", false, "pull the plug on a random switch mid-run")
		seed       = fs.Int64("seed", 1, "random seed")
		traceFile  = fs.String("trace", "", "write a JSONL event trace to this file")
		traceHops  = fs.Bool("trace-hops", false, "with -trace, also record per-switch hop events (enables an2trace's full latency decomposition)")
		httpAddr   = fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		hold       = fs.Bool("hold", false, "with -http, keep serving after the run ends (stop with Ctrl-C)")
		metricsOut = fs.String("metrics-out", "", "write the final Prometheus exposition to this file")
		serveAddr  = fs.String("serve", "", "service mode: run a multi-tenant VC server on this UDP address (e.g. 127.0.0.1:4720) instead of a scripted run")
		serveFor   = fs.Duration("serve-duration", 0, "with -serve, stop after this long (default: until Ctrl-C)")
		maxVCs     = fs.Int("max-vcs", 32, "with -serve, per-tenant open-VC quota")
		maxGtd     = fs.Int("max-guaranteed", 16, "with -serve, per-tenant guaranteed cells/frame quota")
		lease      = fs.Duration("lease", 10*time.Second, "with -serve, session lease duration: an expired lease garbage-collects the tenant's circuits and quota")
		incarn     = fs.Int("incarnation", 0, "with -serve, explicit incarnation stamp (0: derived from the clock); a restart must present a different value so stale sessions are refused")
		drainGrace = fs.Duration("drain-grace", 10*time.Second, "with -serve, how long SIGINT-triggered draining waits for sessions to quiesce before stopping anyway")
		connectTo  = fs.String("connect", "", "tenant mode: run the tenant-churn workload against a VC server at this UDP address")
		tenants    = fs.Int("tenants", 16, "with -connect, concurrent tenant sessions")
		flows      = fs.Int("flows", 10_000, "with -connect, total flows across all tenants")
		drop       = fs.Float64("drop", 0, "with -connect, drop this fraction of tenant-side control frames (lossy-network drill)")
		survivable = fs.Bool("survivable", false, "with -connect, ride out a server kill+restart mid-churn instead of failing")
		rpcTimeout = fs.Duration("rpc-timeout", 2*time.Second, "with -connect, per-attempt RPC reply timeout")
		traceSpans = fs.String("trace-spans", "", "with -serve or -connect, write this process's service spans as JSONL to this file (merge two sides with an2trace -merge)")
		recorder   = fs.Int("recorder", 1024, "with -serve or -connect, flight-recorder ring size in spans (0 disables)")
		dumpPath   = fs.String("dump-path", "", "with -serve or -connect, flight-recorder dump path: the server dumps on panic/drain/shed/refusal-rate (suffixed with the trigger), the tenant fleet dumps on exit")
		refusalTrg = fs.Int("dump-refusal-rate", 0, "with -serve, dump the flight recorder when refusals/second exceed this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connectTo != "" {
		return connectMode(*connectTo, *tenants, *flows, *seed, *drop, *survivable, *rpcTimeout,
			traceOpts{spanPath: *traceSpans, recorder: *recorder, dumpPath: *dumpPath})
	}
	rng := rand.New(rand.NewSource(*seed))

	g, err := buildTopology(rng, *topo, *file, *switches, *hosts)
	if err != nil {
		return err
	}
	var tracer simnet.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		jt := simnet.NewJSONLTracer(f)
		defer func() {
			if jt.Err() != nil {
				fmt.Fprintln(os.Stderr, "an2sim: trace:", jt.Err())
			} else {
				fmt.Printf("trace: %d events written to %s\n", jt.Events(), *traceFile)
			}
		}()
		tracer = jt
	}
	var reg *obs.Registry
	if *httpAddr != "" || *metricsOut != "" {
		reg = obs.NewRegistry(len(g.Switches()))
		reg.PublishExpvar("an2")
	}
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Handler: mux}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "an2sim: http:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (also /debug/vars, /debug/pprof)\n", ln.Addr())
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: *frame, Seed: *seed, Tracer: tracer, TraceHops: *traceHops, Obs: reg})
	if err != nil {
		return err
	}
	fmt.Printf("booted: %d switches, %d hosts, %d links; bandwidth central at %v; reconfig %d µs\n",
		len(g.Switches()), len(g.Hosts()), g.NumLinks(),
		lan.CentralAt(), lan.LastReconfig().MaxCompletionUS)

	if *serveAddr != "" {
		opts := serveOpts{
			maxVCs: *maxVCs, maxGtd: *maxGtd,
			lease: *lease, incarnation: *incarn, drainGrace: *drainGrace,
			trace: traceOpts{
				spanPath: *traceSpans, recorder: *recorder,
				dumpPath: *dumpPath, refusalTrigger: *refusalTrg,
			},
		}
		if err := serveMode(lan, reg, *serveAddr, *serveFor, opts); err != nil {
			return err
		}
		if *metricsOut != "" {
			f, err := os.Create(*metricsOut)
			if err != nil {
				return err
			}
			if err := reg.WritePrometheus(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}

	hostIDs := g.Hosts()
	if len(hostIDs) < 2 {
		return fmt.Errorf("need at least 2 hosts, have %d", len(hostIDs))
	}
	pair := func() (topology.NodeID, topology.NodeID) {
		src := hostIDs[rng.Intn(len(hostIDs))]
		dst := hostIDs[rng.Intn(len(hostIDs))]
		for dst == src {
			dst = hostIDs[rng.Intn(len(hostIDs))]
		}
		return src, dst
	}

	type flow struct {
		vc  cell.VCI
		src topology.NodeID
		dst topology.NodeID
	}
	var be, gt []flow
	for i := 0; i < *circuits; i++ {
		src, dst := pair()
		vc, err := lan.OpenBestEffort(src, dst)
		if err != nil {
			fmt.Printf("  best-effort %d->%d: %v\n", src, dst, err)
			continue
		}
		be = append(be, flow{vc, src, dst})
	}
	for i := 0; i < *guaranteed; i++ {
		src, dst := pair()
		vc, err := lan.Reserve(src, dst, *rate)
		if err != nil {
			fmt.Printf("  reservation %d->%d (%d cells/frame): DENIED (%v)\n", src, dst, *rate, err)
			continue
		}
		gt = append(gt, flow{vc, src, dst})
	}
	fmt.Printf("opened %d best-effort and %d guaranteed circuits\n", len(be), len(gt))

	// Drive: best-effort packets and paced guaranteed cells.
	plugAt := *slots / 2
	for s := int64(0); s < *slots; s++ {
		if s%64 == 0 {
			for _, f := range be {
				pkt := make([]byte, 256+rng.Intn(1024))
				if err := lan.SendPacket(f.vc, pkt); err != nil {
					return err
				}
			}
		}
		if s%16 == 0 {
			for _, f := range gt {
				if err := lan.Send(f.vc, [cell.PayloadSize]byte{}); err != nil {
					return err
				}
			}
		}
		lan.Run(1)
		if *pullplug && s == plugAt {
			victim := pickVictim(rng, g)
			report, err := lan.PullPlug(victim)
			if err != nil {
				fmt.Printf("slot %d: pull plug on %v: %v\n", s, victim, err)
				continue
			}
			fmt.Printf("slot %d: pulled the plug on switch %v: reconfigured in %d µs, rerouted %d circuits (%d unroutable)\n",
				s, victim, report.ReconfigTimeUS, report.Rerouted, report.Unroutable)
		}
	}
	lan.Run(int64(*frame) * 8) // drain

	t := metrics.NewTable("per-destination delivery", "host", "cells-rx", "ooo", "be-lat(mean/p99)", "gtd-lat(mean/p99)")
	for _, h := range hostIDs {
		hs, ok := lan.HostStats(h)
		if !ok || hs.CellsReceived == 0 {
			continue
		}
		bl := hs.LatencyByClass[cell.BestEffort].Summarize()
		gl := hs.LatencyByClass[cell.Guaranteed].Summarize()
		node, _ := g.Node(h)
		t.AddRow(node.Name, hs.CellsReceived, hs.OutOfOrder,
			fmt.Sprintf("%.1f/%d", bl.Mean, bl.P99),
			fmt.Sprintf("%.1f/%d", gl.Mean, gl.P99))
	}
	fmt.Println(t.String())
	ns := lan.NetStats()
	fmt.Printf("network: %d cells delivered, %d lost to failures, %d dropped by reroutes\n",
		ns.DeliveredCells, ns.DroppedInFlight, ns.DroppedReroute)
	// Hottest links.
	util := lan.LinkUtilization()
	var hottest topology.LinkID = -1
	var peak float64
	for id, u := range util {
		if u > peak {
			peak, hottest = u, id
		}
	}
	if hottest >= 0 {
		l, _ := g.Link(hottest)
		na, _ := g.Node(l.A)
		nb, _ := g.Node(l.B)
		fmt.Printf("hottest link: %s--%s at %.2f cells/slot\n", na.Name, nb.Name, peak)
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics: Prometheus exposition written to %s\n", *metricsOut)
	}
	if *httpAddr != "" && *hold {
		fmt.Println("run complete; holding the observability endpoint open (Ctrl-C to exit)")
		select {}
	}
	return nil
}

func buildTopology(rng *rand.Rand, family, file string, switches, hosts int) (*topology.Graph, error) {
	switch family {
	case "src":
		core := switches / 3
		if core < 2 {
			core = 2
		}
		return topology.SRCLike(rng, core, switches-core, hosts, 1)
	case "torus":
		side := 3
		for side*side < switches {
			side++
		}
		g, err := topology.Torus(side, side, 1)
		if err != nil {
			return nil, err
		}
		per := hosts / (side * side)
		if per < 1 {
			per = 1
		}
		if err := topology.AttachHosts(g, per, 1); err != nil {
			return nil, err
		}
		return g, nil
	case "ring":
		g, err := topology.Ring(switches, 1)
		if err != nil {
			return nil, err
		}
		if err := topology.AttachHosts(g, max(1, hosts/switches), 1); err != nil {
			return nil, err
		}
		return g, nil
	case "random":
		g, err := topology.RandomConnected(rng, switches, switches, 1)
		if err != nil {
			return nil, err
		}
		if err := topology.AttachHosts(g, max(1, hosts/switches), 1); err != nil {
			return nil, err
		}
		return g, nil
	case "file":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var g topology.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, err
		}
		return &g, nil
	default:
		return nil, fmt.Errorf("unknown topology family %q", family)
	}
}

func pickVictim(rng *rand.Rand, g *topology.Graph) topology.NodeID {
	// Prefer a switch whose removal does not partition the rest.
	cuts := map[topology.NodeID]bool{}
	for _, c := range g.ArticulationSwitches() {
		cuts[c] = true
	}
	sw := g.Switches()
	for tries := 0; tries < 4*len(sw); tries++ {
		v := sw[rng.Intn(len(sw))]
		if !cuts[v] {
			return v
		}
	}
	return sw[rng.Intn(len(sw))]
}
