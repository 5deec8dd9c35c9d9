package archtest

import (
	"go/ast"
	"maps"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// configAllowList holds the exported fields of Config and Hardening structs
// under internal/ that no non-test file outside their package sets, each
// with the reason it stays a field. A key is the package's directory under
// internal/, the struct's name and the field's name, joined by dots.
var configAllowList = map[string]string{
	"switchnode.Config.BufferLimit": "workload's and switchnode's tests bound a switch's buffers with it, " +
		"and ROADMAP item 4's buffers sized to the link round trip will set it",
	"cbsched.Config.BufferLimit": "cbsched's tests bound its queues with it, as ROADMAP item 4 will for switchnode's",
	"ctrlnet.Config.CorruptProb": "reconfig's CRC tests and recovery's control-fault tests flip bits with it",
	"ctrlnet.Config.DelayProb":   "reconfig's and ctrlnet's fault tests delay messages with it",
	"reconfig.Hardening.UnsafeNoDupGuard": "the mutation knob behind chaos.TestChaosCatchesDupGuardRemoval, " +
		"which only chaos's and reconfig's tests set",
}

// configViolations: every exported field of an exported struct under
// internal/ whose name ends in Config, or is Hardening, is set by some
// non-test file of the module outside its package, or is on the allow-list
// with a reason. A field is set as a key of a composite literal that names
// its struct type (pkg.T{F: …}, &pkg.T{…}; an element literal whose type
// is elided does not count), or as the selector F on the left of an
// assignment. Assignments match by name only, since syntax does not say
// whose field x.F is. An allow-list entry whose field now has a setter, or
// is declared nowhere, is stale.
func configViolations(files []source, allow map[string]string) []string {
	type field struct{ key, dir, name, where string }
	var fields []field
	keyed := map[string]bool{}               // pkg.T.F set as a literal key
	assigned := map[string]map[string]bool{} // F -> the directories assigning x.F
	for _, s := range files {
		if s.file == nil {
			continue
		}
		dir := path.Dir(s.path)
		pkg, internal := strings.CutPrefix(dir, "internal/")
		for _, d := range s.file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || !internal {
				continue
			}
			for _, sp := range gd.Specs {
				ts, ok := sp.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") && ts.Name.Name != "Hardening" {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							name := ts.Name.Name + "." + n.Name
							fields = append(fields, field{pkg + "." + name, dir, n.Name, s.path + ": " + name})
						}
					}
				}
			}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if t := literalType(s.file, n.Type); t != "" && !strings.HasPrefix(t, pkg+".") {
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								keyed[t+"."+id.Name] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok {
						if assigned[sel.Sel.Name] == nil {
							assigned[sel.Sel.Name] = map[string]bool{}
						}
						assigned[sel.Sel.Name][dir] = true
					}
				}
			}
			return true
		})
	}
	var v []string
	declared, needed := map[string]bool{}, map[string]bool{}
	for _, f := range fields {
		declared[f.key] = true
		set := keyed[f.key]
		for d := range assigned[f.name] {
			set = set || d != f.dir
		}
		if set {
			continue
		}
		needed[f.key] = true
		if _, ok := allow[f.key]; !ok {
			v = append(v, f.where+" is set by no non-test file outside its package")
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
			v = append(v, key+": on the config allow-list but declared nowhere")
		case !needed[key]:
			v = append(v, key+": on the config allow-list but has a setter")
		case allow[key] == "":
			v = append(v, key+": on the config allow-list without a reason")
		}
	}
	return v
}

// literalType is "pkg.T" when the literal type t is the qualified
// identifier x.T and x is f's name for repro/internal/pkg, and "" otherwise.
func literalType(f *ast.File, t ast.Expr) string {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if pkg, ok := strings.CutPrefix(p, "repro/internal/"); ok {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == importName(f, p) {
				return pkg + "." + sel.Sel.Name
			}
		}
	}
	return ""
}

func TestConfigFieldsHaveSetters(t *testing.T) {
	files := repoFiles(t)
	if v := configViolations(files, configAllowList); len(v) > 0 {
		t.Fatalf("the tree breaks the rule:\n%s", strings.Join(v, "\n"))
	}
	const decl = "internal/simnet/probe.go"
	const probe = "package simnet\n\ntype ProbeConfig struct{ DupProb float64 }\n"
	const unset = "internal/simnet/probe.go: ProbeConfig.DupProb is set by no non-test file outside its package"
	for _, m := range []struct {
		name  string
		files [][2]string // path and source of each file that joins the tree
		allow map[string]string
		want  string
	}{
		{"a field nothing sets", [][2]string{{decl, probe}}, nil, unset},
		{"a field set only in a test", [][2]string{{decl, probe},
			{"internal/exp/probe_test.go", "package exp\n\nvar cfg = simnet.ProbeConfig{DupProb: 0.5}\n"}},
			nil, unset},
		{"a field set only in its own package", [][2]string{{decl, probe},
			{"internal/simnet/lossy.go", "package simnet\n\nfunc lossy(c *ProbeConfig) { c.DupProb = 0.5 }\n"}},
			nil, unset},
		{"a field whose name another type's literal sets", [][2]string{{decl, probe},
			{"internal/exp/probe.go", "package exp\n\nimport \"repro/internal/ctrlnet\"\n\nvar cfg = ctrlnet.Config{DupProb: 0.5}\n"}},
			nil, unset},
		{"a field set in a literal of its type", [][2]string{{decl, probe},
			{"internal/exp/probe.go", "package exp\n\nimport sn \"repro/internal/simnet\"\n\nvar cfg = &sn.ProbeConfig{DupProb: 0.5}\n"}},
			nil, ""},
		{"a field set through a selector from another package", [][2]string{{decl, probe},
			{"cmd/an2sim/probe.go", "package main\n\nimport \"repro/internal/simnet\"\n\nfunc lossy(c *simnet.ProbeConfig) { c.DupProb = 0.5 }\n"}},
			nil, ""},
		{"an allow-listed field gains a setter", [][2]string{
			{"internal/exp/corrupt.go", "package exp\n\nimport \"repro/internal/ctrlnet\"\n\nvar cfg = ctrlnet.Config{CorruptProb: 0.1}\n"}},
			nil, "ctrlnet.Config.CorruptProb: on the config allow-list but has a setter"},
		{"an allow-listed field is declared nowhere", nil, map[string]string{"simnet.ProbeConfig.DupProb": "a probe"},
			"simnet.ProbeConfig.DupProb: on the config allow-list but declared nowhere"},
		{"an allow-list entry without a reason", [][2]string{{decl, probe}}, map[string]string{"simnet.ProbeConfig.DupProb": ""},
			"simnet.ProbeConfig.DupProb: on the config allow-list without a reason"},
	} {
		t.Run(m.name, func(t *testing.T) {
			mutant := files
			for _, f := range m.files {
				mutant = with(t, mutant, f[0], f[1])
			}
			allow := maps.Clone(configAllowList)
			maps.Copy(allow, m.allow)
			v := configViolations(mutant, allow)
			if m.want == "" && len(v) > 0 || m.want != "" && !slices.ContainsFunc(v, func(s string) bool { return strings.Contains(s, m.want) }) {
				t.Fatalf("want a violation containing %q, got %q", m.want, v)
			}
		})
	}
}
