package archtest

import (
	"go/ast"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// flagFuncs are the flag.FlagSet methods that define a flag, with the
// index of the argument that names it.
var flagFuncs = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0, "Float64": 0, "Duration": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1, "Float64Var": 1,
	"DurationVar": 1,
}

// flagViolations: every flag a command's main.go defines (cmd/*/main.go)
// is passed somewhere in texts — a CI step, a README or EXPERIMENTS.md
// example, or a command's test — as -name or --name. Flags match by name
// only, so a -json that one command's test passes reaches every -json.
func flagViolations(files []source, texts map[string]string) []string {
	var v []string
	for _, s := range files {
		if s.file == nil || !isCommandMain(s.path) {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			i, ok := flagFuncs[fn.Sel.Name]
			if !ok || len(call.Args) <= i {
				return true
			}
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			passed := regexp.MustCompile(`(^|[^A-Za-z0-9_-])--?` + regexp.QuoteMeta(name) + `($|[^A-Za-z0-9_-])`)
			for _, text := range texts {
				if passed.MatchString(text) {
					return true
				}
			}
			v = append(v, s.path+": flag -"+name+" is passed by no CI step, doc example or command test")
			return true
		})
	}
	return v
}

// isCommandMain reports whether p is cmd/<name>/main.go.
func isCommandMain(p string) bool {
	ok, _ := path.Match("cmd/*/main.go", p)
	return ok
}

func TestFlagsAreReached(t *testing.T) {
	texts := map[string]string{}
	tests, err := filepath.Glob(filepath.Join(root, "cmd", "*", "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(tests, filepath.Join(root, ".github", "workflows", "ci.yml"),
		filepath.Join(root, "README.md"), filepath.Join(root, "EXPERIMENTS.md")) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		texts[p] = string(b)
	}
	checkRuleOn(t, repoFiles(t), func(files []source) []string { return flagViolations(files, texts) }, []mutation{
		{"an unreached flag", "cmd/an2topo/main.go",
			"package main\n\nimport \"flag\"\n\nvar depth = flag.Int(\"probe-depth\", 0, \"\")\n",
			"cmd/an2topo/main.go: flag -probe-depth is passed by no CI step"},
		{"a flag defined with Var and reached by a prefix of a longer flag", "cmd/an2sim/main.go",
			"package main\n\nimport \"flag\"\n\nfunc flags(fs *flag.FlagSet, s *string) { fs.StringVar(s, \"trace-h\", \"\", \"\") }\n",
			"flag -trace-h is passed by no CI step"},
		{"a reached flag", "cmd/an2topo/main.go",
			"package main\n\nimport \"flag\"\n\nvar root = flag.Int(\"root\", -1, \"\")\n",
			""},
	})
	if !slices.ContainsFunc(repoFiles(t), func(s source) bool { return isCommandMain(s.path) }) {
		t.Fatal("no cmd/*/main.go found")
	}
}
