package archtest

import (
	"go/ast"
	"maps"
	"path"
	"slices"
	"strings"
	"testing"
)

// exportAllowList holds the exported functions and methods under internal/
// whose names no non-test file of the module uses, each with the reason it
// stays. A key is the package's directory under internal/, a dot, and the
// function's or method's name.
var exportAllowList = map[string]string{
	"topology.MarshalJSON":     "encoding/json calls it",
	"topology.UnmarshalJSON":   "encoding/json calls it",
	"matching.Legal":           "the pim, islip and sched tests check their matchings with it",
	"matching.Maximal":         "the pim, islip and sched tests check their matchings with it",
	"matching.Clear":           "the pim, islip and sched tests reuse a matching with it",
	"chaos.Generate":           "an entry point of the chaos harness, which CI runs through go test",
	"chaos.Shrink":             "an entry point of the chaos harness, which CI runs through go test",
	"chaos.GenerateSvc":        "an entry point of the chaos harness, which CI runs through go test",
	"chaos.SvcShrink":          "an entry point of the chaos harness, which CI runs through go test",
	"schedule.FromAssignments": "switchnode's reference-model test installs a rotated frame with it",
	"switchnode.BufferedVC":    "switchnode's reference-model test compares it, and simnet's reroute test reads a backlog with it",
	"topology.LinksOf":         "routing's, simnet's and topology's tests check the Ports walk against this copy",
	"crossbar.Transferred": "its counter sits in Transfer on the switch step, and deleting it moves " +
		"bench's countWriter.Write to a slow alignment; goes with ROADMAP item 10(a)",
}

// exportViolations: every exported function and method declared in a
// non-test file under internal/ has its name used in some non-test file of
// the module (internal/, cmd/, bench/, examples/ or the root) other than as
// the name of a declared function, or is on the allow-list with a reason.
// An allow-list entry whose name now has a use, or is declared nowhere, is
// stale. The rule matches names, not types: it never reports a name that
// is used, so it can miss a dead method whose name collides with a used
// one (a dead Len beside a called Len on another type).
func exportViolations(files []source, allow map[string]string) []string {
	used := map[string]bool{}
	type export struct{ key, where string }
	var exports []export
	for _, s := range files {
		if s.file == nil {
			continue
		}
		pkg, internal := strings.CutPrefix(path.Dir(s.path), "internal/")
		names := map[*ast.Ident]bool{}
		for _, d := range s.file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if internal && fn.Name.IsExported() {
				exports = append(exports, export{pkg + "." + fn.Name.Name, s.path + ": " + funcName(fn)})
			}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var v []string
	declared, needed := map[string]bool{}, map[string]bool{}
	for _, e := range exports {
		declared[e.key] = true
		if used[e.key[strings.IndexByte(e.key, '.')+1:]] {
			continue
		}
		needed[e.key] = true
		if _, ok := allow[e.key]; !ok {
			v = append(v, e.where+" has no caller outside tests")
		}
	}
	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		switch {
		case !declared[key]:
			v = append(v, key+": on the export allow-list but declared nowhere")
		case !needed[key]:
			v = append(v, key+": on the export allow-list but has a caller")
		case allow[key] == "":
			v = append(v, key+": on the export allow-list without a reason")
		}
	}
	return v
}

// funcName is fn's name as a reader looks it up: Name or (*Recv).Name.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return fn.Name.Name
	}
	t, star := fn.Recv.List[0].Type, ""
	if s, ok := t.(*ast.StarExpr); ok {
		t, star = s.X, "*"
	}
	if x, ok := t.(*ast.IndexExpr); ok { // a generic receiver, T[P]
		t = x.X
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return "(" + star + recv + ")." + fn.Name.Name
}

func TestExportsHaveCallers(t *testing.T) {
	files := repoFiles(t)
	if v := exportViolations(files, exportAllowList); len(v) > 0 {
		t.Fatalf("the tree breaks the rule:\n%s", strings.Join(v, "\n"))
	}
	const decl = "internal/simnet/probe.go"
	const probe = "package simnet\n\nfunc (n *Network) ProbeDepth() int { return 0 }\n"
	for _, m := range []struct {
		name  string
		files [][2]string // path and source of each file that joins the tree
		allow map[string]string
		want  string
	}{
		{"an uncalled export", [][2]string{{decl, probe}}, nil,
			"internal/simnet/probe.go: (*Network).ProbeDepth has no caller outside tests"},
		{"an export called only from a test", [][2]string{{decl, probe},
			{"internal/simnet/probe_test.go", "package simnet\n\nfunc TestProbe(t *testing.T) { _ = New(Config{}).ProbeDepth() }\n"}},
			nil, "(*Network).ProbeDepth has no caller outside tests"},
		{"an export called from another package", [][2]string{{decl, probe},
			{"internal/exp/probe.go", "package exp\n\nfunc depth(n *simnet.Network) int { return n.ProbeDepth() }\n"}},
			nil, ""},
		{"an export called only from bench", [][2]string{{decl, probe},
			{"bench/probe.go", "package main\n\nfunc depth(n *simnet.Network) int { return n.ProbeDepth() }\n"}},
			nil, ""},
		{"an export called only from an example", [][2]string{{decl, probe},
			{"examples/quickstart/probe.go", "package main\n\nfunc depth(n *simnet.Network) int { return n.ProbeDepth() }\n"}},
			nil, ""},
		{"an export used only in its own file", [][2]string{{decl, probe + "\nfunc (n *Network) depth() int { return n.ProbeDepth() }\n"}},
			nil, ""},
		{"an allow-listed export gains a caller", [][2]string{
			{"internal/exp/moved.go", "package exp\n\nfunc moved(x *crossbar.Crossbar) uint64 { return x.Transferred() }\n"}},
			nil, "crossbar.Transferred: on the export allow-list but has a caller"},
		{"an allow-listed name is declared nowhere", nil, map[string]string{"simnet.ProbeDepth": "a probe"},
			"simnet.ProbeDepth: on the export allow-list but declared nowhere"},
		{"an allow-list entry without a reason", [][2]string{{decl, probe}}, map[string]string{"simnet.ProbeDepth": ""},
			"simnet.ProbeDepth: on the export allow-list without a reason"},
	} {
		t.Run(m.name, func(t *testing.T) {
			mutant := files
			for _, f := range m.files {
				mutant = with(t, mutant, f[0], f[1])
			}
			allow := maps.Clone(exportAllowList)
			maps.Copy(allow, m.allow)
			v := exportViolations(mutant, allow)
			if m.want == "" && len(v) > 0 || m.want != "" && !slices.ContainsFunc(v, func(s string) bool { return strings.Contains(s, m.want) }) {
				t.Fatalf("want a violation containing %q, got %q", m.want, v)
			}
		})
	}
}
