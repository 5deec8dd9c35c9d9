package reconfig

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ctrlnet"
	"repro/internal/topology"
)

func mustRunner(t *testing.T, cfg Config) *Runner {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTagOrdering(t *testing.T) {
	a := Tag{Epoch: 1, Initiator: 5}
	b := Tag{Epoch: 1, Initiator: 9}
	c := Tag{Epoch: 2, Initiator: 1}
	if !a.Less(b) || !b.Less(c) || !a.Less(c) {
		t.Error("tag ordering broken")
	}
	if b.Less(a) || c.Less(a) || a.Less(a) {
		t.Error("tag ordering not strict")
	}
	if a.String() == "" {
		t.Error("empty tag string")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoTopology) {
		t.Fatalf("err = %v, want ErrNoTopology", err)
	}
}

func TestSingleSwitch(t *testing.T) {
	g := topology.New()
	s := g.AddSwitch("lonely")
	h := g.AddHost("h")
	if _, err := g.Connect(s, h, 1); err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	res, err := r.Run([]Trigger{{Node: s}})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Views[s]
	if v == nil {
		t.Fatal("lonely switch never completed")
	}
	if len(v.Links) != 1 || v.Links[0] != (LinkRec{A: s, B: h}) {
		t.Fatalf("links = %v", v.Links)
	}
	if v.Depth != 0 || v.Parent != topology.None {
		t.Fatal("lonely switch should be its own root")
	}
}

func TestAllNodesLearnFullTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g, err := topology.RandomConnected(rng, 3+rng.Intn(25), 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRunner(t, Config{Topology: g})
		initiator := r.LiveSwitches()[rng.Intn(len(r.LiveSwitches()))]
		res, err := r.Run([]Trigger{{Node: initiator}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := r.Agreement(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := r.ExpectedLinks()
		for s, v := range res.Views {
			if !equalRecs(v.Links, want) {
				t.Fatalf("trial %d: switch %d learned %d links, want %d",
					trial, s, len(v.Links), len(want))
			}
		}
		if len(res.Views) != len(r.LiveSwitches()) {
			t.Fatalf("trial %d: %d views for %d switches", trial, len(res.Views), len(r.LiveSwitches()))
		}
	}
}

func TestSpanningTreeShape(t *testing.T) {
	// The root has depth 0 and no parent; every other completed switch has
	// a parent whose depth is one less... (propagation order ⇒ parent
	// completed the invite earlier, but depths must be consistent with the
	// tree edges used).
	g, err := topology.Torus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	res, err := r.Run([]Trigger{{Node: 0}})
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for s, v := range res.Views {
		if v.Parent == topology.None {
			roots++
			if v.Depth != 0 {
				t.Fatalf("root depth = %d", v.Depth)
			}
			if s != 0 {
				t.Fatalf("root is %d, want initiator 0", s)
			}
			continue
		}
		pv := res.Views[v.Parent]
		if pv == nil {
			t.Fatalf("switch %d has parent %d with no view", s, v.Parent)
		}
		if v.Depth != pv.Depth+1 {
			t.Fatalf("switch %d depth %d but parent depth %d", s, v.Depth, pv.Depth)
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want 1", roots)
	}
}

// E1: the pull-the-plug demo. Kill an arbitrary switch in an SRC-like
// network; the survivors detect it, reconfigure, and all agree on the
// post-failure topology in well under 200 ms of virtual time.
func TestPullThePlug(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := topology.SRCLike(rng, 6, 12, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range g.Switches() {
		dead := map[topology.NodeID]bool{victim: true}
		r := mustRunner(t, Config{Topology: g, DeadNodes: dead})
		// Every ex-neighbor of the victim detects the failure and triggers.
		var triggers []Trigger
		for _, nb := range g.SwitchNeighbors(victim) {
			triggers = append(triggers, Trigger{Node: nb, AtUS: 0})
		}
		res, err := r.Run(triggers)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if err := r.Agreement(res); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		want := r.ExpectedLinks()
		for s, v := range res.Views {
			if !equalRecs(v.Links, want) {
				t.Fatalf("victim %d: switch %d topology wrong", victim, s)
			}
			for _, rec := range v.Links {
				if rec.A == victim || rec.B == victim {
					t.Fatalf("victim %d still appears in learned topology", victim)
				}
			}
		}
		if res.MaxCompletionUS >= 200_000 {
			t.Fatalf("victim %d: convergence %d µs exceeds the 200 ms budget", victim, res.MaxCompletionUS)
		}
	}
}

// E14: overlapping reconfigurations. Several switches trigger concurrently;
// epoch tags make everyone converge on a single configuration.
func TestOverlappingReconfigurations(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		g, err := topology.RandomConnected(rng, 4+rng.Intn(20), 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRunner(t, Config{Topology: g})
		sw := r.LiveSwitches()
		k := 2 + rng.Intn(4)
		var triggers []Trigger
		for i := 0; i < k && i < len(sw); i++ {
			triggers = append(triggers, Trigger{Node: sw[rng.Intn(len(sw))], AtUS: int64(rng.Intn(50))})
		}
		res, err := r.Run(triggers)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := r.Agreement(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The winning tag's initiator must be one of the triggered nodes.
		var winner Tag
		for _, v := range res.Views {
			if winner.Less(v.Tag) {
				winner = v.Tag
			}
		}
		found := false
		for _, tr := range triggers {
			n, _ := g.Node(tr.Node)
			if n.UID == winner.Initiator {
				found = true
			}
		}
		if !found {
			t.Fatalf("trial %d: winner %v initiated by a non-triggered switch", trial, winner)
		}
	}
}

// Sequential reconfigurations bump epochs: a second run on the same runner
// state is modeled by re-running with fresh processes, so instead verify
// that within one run, a late trigger at a higher vtime supersedes (the
// epoch of the winner is >= number of sequential triggers at one node).
func TestSequentialTriggersAdvanceEpoch(t *testing.T) {
	g, err := topology.Ring(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	res, err := r.Run([]Trigger{
		{Node: 0, AtUS: 0},
		{Node: 0, AtUS: 10_000}, // same node triggers again later
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Agreement(res); err != nil {
		t.Fatal(err)
	}
	v := res.Views[0]
	if v.Tag.Epoch < 2 {
		t.Fatalf("epoch = %d, want >= 2 after two triggers", v.Tag.Epoch)
	}
}

func TestPartitionedComponentsConvergeSeparately(t *testing.T) {
	// Two rings joined by one link; kill the link; a trigger in each
	// component. Both components converge to their own view.
	g := topology.New()
	for i := 0; i < 6; i++ {
		g.AddSwitch("")
	}
	mustConn := func(a, b topology.NodeID) topology.LinkID {
		id, err := g.Connect(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustConn(0, 1)
	mustConn(1, 2)
	mustConn(2, 0)
	mustConn(3, 4)
	mustConn(4, 5)
	mustConn(5, 3)
	bridge := mustConn(2, 3)
	r := mustRunner(t, Config{Topology: g, DeadLinks: map[topology.LinkID]bool{bridge: true}})
	res, err := r.Run([]Trigger{{Node: 2}, {Node: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Agreement(res); err != nil {
		t.Fatal(err)
	}
	// Component views must not contain the other side.
	for _, s := range []topology.NodeID{0, 1, 2} {
		for _, rec := range res.Views[s].Links {
			if rec.A >= 3 || rec.B >= 3 {
				t.Fatalf("switch %d learned cross-partition link %v", s, rec)
			}
		}
	}
	if len(res.Views[0].Links) != 3 || len(res.Views[3].Links) != 3 {
		t.Fatalf("component link counts: %d, %d",
			len(res.Views[0].Links), len(res.Views[3].Links))
	}
}

func TestUntriggeredComponentStaysSilent(t *testing.T) {
	g := topology.New()
	a := g.AddSwitch("a")
	b := g.AddSwitch("b")
	c := g.AddSwitch("c") // isolated
	if _, err := g.Connect(a, b, 1); err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	res, err := r.Run([]Trigger{{Node: a}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Views[c] != nil {
		t.Fatal("isolated untriggered switch completed a configuration")
	}
	if res.Views[a] == nil || res.Views[b] == nil {
		t.Fatal("triggered component did not complete")
	}
}

func TestBadTrigger(t *testing.T) {
	g, err := topology.Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g, DeadNodes: map[topology.NodeID]bool{2: true}})
	if _, err := r.Run([]Trigger{{Node: 2}}); !errors.Is(err, ErrBadTrigger) {
		t.Fatalf("err = %v, want ErrBadTrigger", err)
	}
	if _, err := r.Run(nil); err == nil {
		t.Fatal("empty trigger list accepted")
	}
}

// E13: with uniform link and processing delays the propagation-order tree
// IS a breadth-first tree — "first invitation received" is decided by
// virtual arrival time, and nothing else.
func TestTreeDepthNearBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g, err := topology.RandomConnected(rng, 20, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := mustRunner(t, Config{Topology: g})
		initiator := r.LiveSwitches()[rng.Intn(20)]
		res, err := r.Run([]Trigger{{Node: initiator}})
		if err != nil {
			t.Fatal(err)
		}
		if _, bfsDepth := g.BFS(initiator, g.SwitchOnly, nil); res.TreeDepth != bfsDepth {
			t.Fatalf("trial %d: propagation tree depth %d, BFS depth %d", trial, res.TreeDepth, bfsDepth)
		}
	}
}

// Fidelity pins for the fault-free run from the first live switch. The
// message counts are schedule-independent (one invite+ack per directed
// switch link, one report+distribute per tree edge, one trigger); depth
// and convergence time are what virtual-time ordering makes of them. The
// byte counts pin the wire itself: a message encoded once and sent to
// several neighbors still puts every copy's bytes on the wire. And every
// view of the run shares the root's one list.
func TestFaultFreeRunPins(t *testing.T) {
	fatTree := func(radix int) func() (*topology.Graph, error) {
		return func() (*topology.Graph, error) {
			g, _, err := topology.FatTree(topology.FatTreeConfig{Radix: radix, Pods: radix})
			return g, err
		}
	}
	for _, tc := range []struct {
		name       string
		build      func() (*topology.Graph, error)
		messages   int64
		bytes      int64
		convergeUS int64
		// quietTimers: the default Hardening's timers never fire on a
		// fault-free channel. Not so on the radix-24 fat-tree, where the
		// fixed 60 µs invite timeout is shorter than a neighbor's
		// processing queue (ROADMAP, small debts).
		quietTimers bool
	}{
		{"torus-3x3", func() (*topology.Graph, error) { return topology.Torus(3, 3, 1) }, 73, 4592, 145, true},
		{"torus-8x8", func() (*topology.Graph, error) { return topology.Torus(8, 8, 1) }, 513, 92544, 405, true},
		{"fat-tree-r8", fatTree(8), 1025, 300008, 280, true},
		{"fat-tree-r24", fatTree(24), 27649, 61221800, 550, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			r := mustRunner(t, Config{Topology: g})
			triggers := []Trigger{{Node: r.LiveSwitches()[0]}}
			res, err := r.Run(triggers)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Agreement(res); err != nil {
				t.Fatal(err)
			}
			_, bfsDepth := g.BFS(triggers[0].Node, g.SwitchOnly, nil)
			if res.Messages != tc.messages || res.Bytes != tc.bytes || res.MaxCompletionUS != tc.convergeUS || res.TreeDepth != bfsDepth {
				t.Fatalf("messages %d, bytes %d, converged at %d µs, depth %d; want %d, %d, %d µs, BFS depth %d",
					res.Messages, res.Bytes, res.MaxCompletionUS, res.TreeDepth, tc.messages, tc.bytes, tc.convergeUS, bfsDepth)
			}
			root := res.Views[triggers[0].Node]
			for s, v := range res.Views {
				if &v.Links[0] != &root.Links[0] {
					t.Fatalf("switch %d holds a private copy of the topology", s)
				}
			}
			again, err := r.Run(triggers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Fatal("two Runs on one Runner differ")
			}
			if !tc.quietTimers {
				return
			}
			// The same run with the repair timers armed over a zero-fault
			// injector: they never fire, so nothing else may move either.
			ur, err := r.RunOver(triggers, nil, faulty(t, ctrlnet.Config{Seed: 1}), Hardening{})
			if err != nil {
				t.Fatal(err)
			}
			if !ur.Converged || ur.Retransmits != 0 || ur.Retriggers != 0 || ur.CRCRejects != 0 {
				t.Fatalf("fault-free run did repair work: converged=%v retx=%d retrig=%d crc=%d",
					ur.Converged, ur.Retransmits, ur.Retriggers, ur.CRCRejects)
			}
			if !reflect.DeepEqual(res, &ur.Result) {
				t.Fatal("armed timers that never fired changed the result")
			}
		})
	}
}

// A message the wire codec refuses to encode is a bug in this package, not
// line noise: the run — the one engine under Run, RunScoped and RunOver —
// returns an error instead of filing it under CRCRejects and carrying on.
func TestUnencodableMessageFailsTheRun(t *testing.T) {
	g, err := topology.Line(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	lp, err := r.newLoop([]Trigger{{Node: 0}}, nil, faulty(t, ctrlnet.Config{}), Hardening{}, true)
	if err != nil {
		t.Fatal(err)
	}
	lp.nodes[0].emit(1, message{kind: kindTrigger}) // a trigger is local, never a wire message
	ur, err := lp.run()
	if err == nil {
		t.Fatalf("codec failure swallowed: %d views, CRCRejects=%d", len(ur.Views), ur.CRCRejects)
	}
}

func TestLinearChainWorstCase(t *testing.T) {
	// On a line the tree IS the line: depth = n-1 from an end.
	g, err := topology.Line(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	res, err := r.Run([]Trigger{{Node: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeDepth != 9 {
		t.Fatalf("line tree depth = %d, want 9", res.TreeDepth)
	}
	if err := r.Agreement(res); err != nil {
		t.Fatal(err)
	}
}

func TestMessageCountScalesLinearly(t *testing.T) {
	// Per configuration: one invite+ack per adjacent switch pair direction
	// (2 per link), one report per tree edge, one distribute per tree
	// edge: O(links). Verify the total stays within a small multiple.
	g, err := topology.Torus(4, 4, 1) // 16 switches, 32 links
	if err != nil {
		t.Fatal(err)
	}
	r := mustRunner(t, Config{Topology: g})
	res, err := r.Run([]Trigger{{Node: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// invites+acks: 2 per directed link = 4*32/... bounded by 6*links+3*n.
	maxMsgs := int64(6*g.NumLinks() + 3*g.NumNodes())
	if res.Messages > maxMsgs {
		t.Fatalf("messages = %d, want <= %d", res.Messages, maxMsgs)
	}
	// Every message crossed the wire codec; the byte counter must show it.
	if res.Bytes < res.Messages*39 { // 39 = minimum encoded size sans CRC
		t.Fatalf("bytes = %d for %d messages; codec accounting broken", res.Bytes, res.Messages)
	}
}

func BenchmarkReconfigure30Switches(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, err := topology.RandomConnected(rng, 30, 30, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := New(Config{Topology: g})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run([]Trigger{{Node: 0}}); err != nil {
			b.Fatal(err)
		}
	}
}
