package topology

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestFatTreeSmall(t *testing.T) {
	g, info, err := FatTree(FatTreeConfig{Radix: 8, Pods: 4})
	if err != nil {
		t.Fatal(err)
	}
	// radix 8, oversub 1: h=4, u=4, A=4, E=4, S=4 → 4 pods × 8 switches
	// + 16 spines, 4×4×4 = 64 hosts.
	if info.EdgesPerPod != 4 || info.AggsPerPod != 4 || info.SpineLinks != 4 || info.SpinePlanes != 4 {
		t.Fatalf("derived sizes = %+v", info)
	}
	if got := len(g.Switches()); got != 48 {
		t.Fatalf("graph switches = %d, want 48", got)
	}
	if got := len(g.Hosts()); got != 64 {
		t.Fatalf("graph hosts = %d, want 64", got)
	}
	if err := info.Validate(g); err != nil {
		t.Fatal(err)
	}
	if b := info.Bisection(g, nil); b != 1.0 {
		t.Fatalf("Bisection = %g, want 1.0", b)
	}
	// Pod/tier labels.
	for p, pod := range info.Pods {
		for _, s := range pod {
			n, _ := g.Node(s)
			if n.Pod != p {
				t.Fatalf("switch %s pod = %d, want %d", n.Name, n.Pod, p)
			}
		}
	}
	for _, s := range info.Spines {
		n, _ := g.Node(s)
		if n.Pod != NoPod || n.Tier != TierSpine {
			t.Fatalf("spine %s labeled pod=%d tier=%v", n.Name, n.Pod, n.Tier)
		}
	}
	// Root is a spine.
	if n, _ := g.Node(info.Root); n.Tier != TierSpine {
		t.Fatalf("Root %v is not a spine", info.Root)
	}
}

func TestFatTreeOversubscribed(t *testing.T) {
	g, info, err := FatTree(FatTreeConfig{Radix: 8, Pods: 2, HostsPerEdge: 6, Oversub: 3})
	if err != nil {
		t.Fatal(err)
	}
	// h=6, o=3 → u=2, A=2, E = largest with E+ceil(E/3) <= 8 → 6, S=2.
	if info.EdgeUplinks != 2 || info.EdgesPerPod != 6 || info.SpineLinks != 2 {
		t.Fatalf("derived sizes = %+v", info)
	}
	if err := info.Validate(g); err != nil {
		t.Fatal(err)
	}
	b := info.Bisection(g, nil)
	if b <= 0 || b > 1.0/3+1e-9 {
		t.Fatalf("Bisection = %g, want <= 1/3", b)
	}
}

func TestFatTreeInfeasible(t *testing.T) {
	cases := []FatTreeConfig{
		{Radix: 2, Pods: 1},                   // radix too small
		{Radix: 8, Pods: 9},                   // pods > radix
		{Radix: 8, Pods: 2, HostsPerEdge: 8},  // no room for uplinks
		{Radix: 8, Pods: 2, Oversub: 0.5},     // oversub < 1
		{Radix: 8, Pods: 0},                   // no pods
		{Radix: 8, Pods: 2, HostsPerEdge: -1}, // negative hosts
	}
	for _, cfg := range cases {
		if _, _, err := FatTree(cfg); err == nil {
			t.Errorf("FatTree(%+v) succeeded, want error", cfg)
		}
	}
}

// TestFatTreeAtScale is the at-scale acceptance case: radix 24 builds the
// largest strict full-bisection two-layer fabric (24 pods × 24 switches +
// 144 spines = 720 switches, 3456 hosts = 4176 nodes), and radix 32
// crosses 1k switches.
func TestFatTreeAtScale(t *testing.T) {
	g, info, err := FatTree(FatTreeConfig{Radix: 24, Pods: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.Switches()); got != 24*24+144 {
		t.Fatalf("radix-24 switches = %d, want 720", got)
	}
	if got := len(g.Hosts()); got != 24*12*12 {
		t.Fatalf("radix-24 hosts = %d, want 3456", got)
	}
	if err := info.Validate(g); err != nil {
		t.Fatal(err)
	}
	if b := info.Bisection(g, nil); b != 1.0 {
		t.Fatalf("radix-24 Bisection = %g, want 1.0", b)
	}

	g32, info32, err := FatTree(FatTreeConfig{Radix: 32, Pods: 32, NoHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g32.Switches()); got < 1000 {
		t.Fatalf("radix-32 switches = %d, want >= 1000", got)
	}
	if err := info32.Validate(g32); err != nil {
		t.Fatal(err)
	}
	if b := info32.Bisection(g32, nil); b != 1.0 {
		t.Fatalf("radix-32 Bisection = %g, want 1.0", b)
	}
}

func TestFatTreeDOTPodColors(t *testing.T) {
	g, _, err := FatTree(FatTreeConfig{Radix: 4, Pods: 2, NoHosts: true})
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	if !strings.Contains(dot, "fillcolor") {
		t.Fatalf("DOT output has no pod colors:\n%s", dot)
	}
	// Two pods must get two distinct colors, spines grey.
	if !strings.Contains(dot, podPalette[0]) || !strings.Contains(dot, podPalette[1]) {
		t.Fatalf("DOT output missing pod palette colors:\n%s", dot)
	}
	if !strings.Contains(dot, "#cccccc") {
		t.Fatalf("DOT output missing spine grey:\n%s", dot)
	}
}

func TestFatTreeJSONRoundTrip(t *testing.T) {
	g, info, err := FatTree(FatTreeConfig{Radix: 6, Pods: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var g2 Graph
	if err := json.Unmarshal(data, &g2); err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d links",
			g2.NumNodes(), g.NumNodes(), g2.NumLinks(), g.NumLinks())
	}
	for _, n := range g.Nodes() {
		m, ok := g2.Node(n.ID)
		if !ok || m.Pod != n.Pod || m.Tier != n.Tier || m.NumPorts() != n.NumPorts() {
			t.Fatalf("node %d: got pod=%d tier=%v ports=%d, want pod=%d tier=%v ports=%d",
				n.ID, m.Pod, m.Tier, m.NumPorts(), n.Pod, n.Tier, n.NumPorts())
		}
	}
	// Validate still passes against the decoded graph.
	if err := info.Validate(&g2); err != nil {
		t.Fatal(err)
	}
}

// TestAttachHostsExhaustionNamesSwitch is the satellite edge case: on an
// asymmetric graph where only one switch runs out of ports, the error must
// name that switch.
func TestAttachHostsExhaustionNamesSwitch(t *testing.T) {
	g := New()
	big, err := g.AddSwitchPorts("big", 8)
	if err != nil {
		t.Fatal(err)
	}
	small, err := g.AddSwitchPorts("small", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Connect(big, small, 1); err != nil {
		t.Fatal(err)
	}
	// 3 hosts per switch: big has 7 free ports, small only 2.
	err = AttachHosts(g, 3, 1)
	if err == nil {
		t.Fatal("AttachHosts succeeded, want port exhaustion")
	}
	if !errors.Is(err, ErrNoFreePort) {
		t.Fatalf("error = %v, want ErrNoFreePort", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, `"small"`) {
		t.Fatalf("error does not name the exhausted switch: %v", err)
	}
	if !strings.Contains(msg, "3 of 3 ports in use") {
		t.Fatalf("error does not report port usage: %v", err)
	}
}
