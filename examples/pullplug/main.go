// Pull the plug — the paper's favorite AN1/AN2 demo (§1):
//
//	"A favorite AN1 demo is pulling the plug on an arbitrary switch in
//	 SRC's main LAN. The network reconfigures in less than 200
//	 milliseconds, and users see no service interruption."
//
// This example streams packets between two hosts, kills a switch on the
// circuit's path mid-stream, and shows the reconfiguration time, the
// reroute, and that the stream continues.
//
//	go run ./examples/pullplug
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/topology"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the demo, writing its narration to w.
func run(w io.Writer) error {
	rng := rand.New(rand.NewSource(7))
	g, err := topology.SRCLike(rng, 4, 8, 12, 1)
	if err != nil {
		return err
	}
	lan, err := core.New(core.Config{Topology: g, FrameSlots: 128, Seed: 7})
	if err != nil {
		return err
	}

	hosts := g.Hosts()
	src, dst := hosts[0], hosts[len(hosts)-1]
	vc, err := lan.OpenBestEffort(src, dst)
	if err != nil {
		return err
	}
	path, _ := lan.CircuitPath(vc)
	fmt.Fprintf(w, "streaming on circuit %d over %v\n", vc, path)

	send := func(n int, tag byte) error {
		for i := 0; i < n; i++ {
			pkt := make([]byte, 400)
			pkt[0] = tag
			if err := lan.SendPacket(vc, pkt); err != nil {
				return err
			}
			lan.Run(32)
		}
		return nil
	}

	// Stream a while...
	if err := send(40, 'a'); err != nil {
		return err
	}
	stats, _ := lan.HostStats(dst)
	beforeCells := stats.CellsReceived
	fmt.Fprintf(w, "before the plug: %d cells delivered, %d lost\n",
		beforeCells, lan.NetStats().DroppedInFlight)

	// ...then pull the plug on a switch in the middle of the path.
	victim := path[1+len(path[1:len(path)-1])/2]
	node, _ := g.Node(victim)
	fmt.Fprintf(w, "\n*** pulling the plug on switch %q ***\n\n", node.Name)
	report, err := lan.PullPlug(victim)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "reconfiguration converged in %d µs (budget: 200,000 µs)\n", report.ReconfigTimeUS)
	fmt.Fprintf(w, "circuits rerouted: %d, unroutable: %d\n", report.Rerouted, report.Unroutable)
	newPath, _ := lan.CircuitPath(vc)
	fmt.Fprintf(w, "new route: %v\n", newPath)

	// The stream continues without interruption.
	if err := send(40, 'b'); err != nil {
		return err
	}
	lan.Run(4_000)
	ns := lan.NetStats()
	fmt.Fprintf(w, "\nafter the plug: %d cells delivered (+%d), %d cells died with the switch\n",
		stats.CellsReceived, stats.CellsReceived-beforeCells, ns.DroppedInFlight)
	pkts := lan.Packets(dst)
	var a, b int
	for _, p := range pkts {
		switch p[0] {
		case 'a':
			a++
		case 'b':
			b++
		}
	}
	fmt.Fprintf(w, "packets reassembled: %d before-tag + %d after-tag\n", a, b)
	if report.ReconfigTimeUS < 200_000 && b > 0 {
		fmt.Fprintln(w, "\ndemo verdict: service survived the plug — as the paper promises.")
	}
	return nil
}
