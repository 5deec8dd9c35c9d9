// Package archtest states the repository's architecture rules as facts
// about Go syntax trees and checks them under go test. A rule is a function
// from parsed files to its violations: most read the non-test files under
// internal/, a few also the rest of the module's non-test files or the
// identifiers of the repository's test files. Each test runs its rule on
// the tree as it is, which must be clean, and on the tree with one file
// replaced by a small in-memory source that breaks the rule, which must be
// caught. Parsing works on syntax, so a renamed import or a reformat
// cannot slip past a rule the way it slips past a grep.
package archtest

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// source is one Go file; path is relative to internal/ (or, for the
// whole-repository rules, to the repository root), with slashes. A non-test
// file is parsed (file); a test file is only scanned (file is nil): the
// rules that read tests need no more than its identifiers and the names of
// its top-level Test functions.
type source struct {
	path   string
	file   *ast.File
	idents []string // the distinct identifiers, sorted
	tests  []string // test files: the top-level func Test… names
}

// root is the repository root, seen from this package's directory.
const root = "../.."

// repo loads, once per test binary, every Go file in the repository, one
// file per CPU at a time; paths are relative to the repository root.
var repo = sync.OnceValues(func() ([]source, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(rel, ".go") {
			paths = append(paths, filepath.ToSlash(rel))
		}
		return nil
	})
	out := make([]source, len(paths))
	errs := make([]error, len(paths)+1)
	errs[len(paths)] = err
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				src, err := os.ReadFile(filepath.Join(root, paths[i]))
				if err == nil {
					out[i], err = load(paths[i], src)
				}
				errs[i] = err
			}
		}()
	}
	for i := range paths {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
})

// load parses a non-test file, or scans a test file, at path.
func load(path string, src []byte) (source, error) {
	s := source{path: path}
	if !strings.HasSuffix(path, "_test.go") {
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return s, err
		}
		s.file = f
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				s.idents = append(s.idents, id.Name)
			}
			return true
		})
	} else {
		var sc scanner.Scanner
		var errs scanner.ErrorList
		sc.Init(token.NewFileSet().AddFile(path, -1, len(src)), src, errs.Add, 0)
		depth, fn := 0, false // brace depth; the last token was a top-level func
		for _, tok, lit := sc.Scan(); tok != token.EOF; _, tok, lit = sc.Scan() {
			switch tok {
			case token.LBRACE:
				depth++
			case token.RBRACE:
				depth--
			case token.IDENT:
				s.idents = append(s.idents, lit)
				if fn && strings.HasPrefix(lit, "Test") {
					s.tests = append(s.tests, lit)
				}
			}
			fn = tok == token.FUNC && depth == 0
		}
		if err := errs.Err(); err != nil {
			return s, err
		}
	}
	slices.Sort(s.idents)
	s.idents = slices.Compact(s.idents)
	return s, nil
}

// repoFiles is every loaded file of the repository.
func repoFiles(t *testing.T) []source {
	t.Helper()
	files, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// parsed is the non-test files under internal/, with paths relative to it.
func parsed(t *testing.T) []source {
	t.Helper()
	var out []source
	for _, s := range repoFiles(t) {
		if rel, ok := strings.CutPrefix(s.path, "internal/"); ok && s.file != nil {
			s.path = rel
			out = append(out, s)
		}
	}
	return out
}

// with returns files with the file at path replaced by (or, if there is
// none, extended with) src, loaded as load does.
func with(t *testing.T, files []source, path, src string) []source {
	t.Helper()
	s, err := load(path, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	out := slices.DeleteFunc(slices.Clone(files), func(s source) bool { return s.path == path })
	return append(out, s)
}

// importName is the name under which f refers to the package at path, or
// "" if f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// pkgSelector returns Sel if e is a qualified identifier x.Sel and x is
// f's name for the package at pkgPath.
func pkgSelector(f *ast.File, e ast.Expr, pkgPath string) (sel string, ok bool) {
	s, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	x, isIdent := s.X.(*ast.Ident)
	if name := importName(f, pkgPath); !isIdent || name == "" || x.Name != name {
		return "", false
	}
	return s.Sel.Name, true
}

// goroutineAllowList holds the only non-test files under internal/ that
// may contain a go statement: socket I/O, a load generator and the two
// loopback-service experiments' Serve launchers. No goroutine is a
// simulation clock.
var goroutineAllowList = []string{
	"ctrlnet/udp.go",
	"exp/surviveexp.go",
	"exp/traceexp.go",
	"workload/tenants.go",
}

// goroutineViolations: the files with a go statement are exactly the
// allow-list (a listed file that no longer spawns is a stale entry), and
// no non-test reconfig file imports sync or sync/atomic.
func goroutineViolations(files []source) []string {
	var v []string
	spawns := map[string]bool{}
	for _, s := range files {
		ast.Inspect(s.file, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				spawns[s.path] = true
			}
			return !spawns[s.path]
		})
		if spawns[s.path] && !slices.Contains(goroutineAllowList, s.path) {
			v = append(v, s.path+": go statement outside the allow-list")
		}
		if strings.HasPrefix(s.path, "reconfig/") {
			for _, pkg := range []string{"sync", "sync/atomic"} {
				if importName(s.file, pkg) != "" {
					v = append(v, s.path+": reconfig imports "+pkg)
				}
			}
		}
	}
	for _, p := range goroutineAllowList {
		if !spawns[p] {
			v = append(v, p+": on the goroutine allow-list but has no go statement")
		}
	}
	return v
}

// serverMachineViolations: the service's protocol core, svc/server.go,
// reads no clock (time.Now, time.Since), records nothing (obs), and sends
// on no transport (ctrlnet, or any .Send call other than c.lan.Send, which
// puts cells into the data plane). Its shell, svc/svc.go, reads the clock
// only through Config.Now: it calls neither time.Now nor time.Since.
func serverMachineViolations(files []source) []string {
	var v []string
	found := map[string]bool{}
	for _, s := range files {
		switch s.path {
		case "svc/server.go":
			found[s.path] = true
			ast.Inspect(s.file, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if sel, ok := pkgSelector(s.file, e, "time"); ok && (sel == "Now" || sel == "Since") {
					v = append(v, s.path+": reads the clock: time."+sel)
				}
				for _, pkg := range []string{"repro/internal/obs", "repro/internal/ctrlnet"} {
					if sel, ok := pkgSelector(s.file, e, pkg); ok {
						v = append(v, s.path+": uses "+pkg+"."+sel)
					}
				}
				if call, ok := e.(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.SelectorExpr); ok && fn.Sel.Name == "Send" && !isLANSend(fn) {
						v = append(v, s.path+": a .Send call other than c.lan.Send")
					}
				}
				return true
			})
		case "svc/svc.go":
			found[s.path] = true
			ast.Inspect(s.file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := pkgSelector(s.file, call.Fun, "time"); ok && (sel == "Now" || sel == "Since") {
						v = append(v, s.path+": calls time."+sel+" (the shell's one clock is Config.Now)")
					}
				}
				return true
			})
		}
	}
	for _, p := range []string{"svc/server.go", "svc/svc.go"} {
		if !found[p] {
			v = append(v, p+": missing (the rule names it)")
		}
	}
	return v
}

// isLANSend reports whether fn is c.lan.Send.
func isLANSend(fn *ast.SelectorExpr) bool {
	lan, ok := fn.X.(*ast.SelectorExpr)
	if !ok || lan.Sel.Name != "lan" {
		return false
	}
	c, ok := lan.X.(*ast.Ident)
	return ok && c.Name == "c"
}

// mutation is one in-memory file that replaces (or joins) the tree; want
// is a substring of the violation the rule must report for it, or "" when
// the mutant obeys the rule.
type mutation struct {
	name, path, src, want string
}

func checkRule(t *testing.T, rule func([]source) []string, mutations []mutation) {
	checkRuleOn(t, parsed(t), rule, mutations)
}

// checkRuleOn is checkRule over the given files.
func checkRuleOn(t *testing.T, files []source, rule func([]source) []string, mutations []mutation) {
	t.Helper()
	if v := rule(files); len(v) > 0 {
		t.Fatalf("the tree breaks the rule:\n%s", strings.Join(v, "\n"))
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			v := rule(with(t, files, m.path, m.src))
			if m.want == "" {
				if len(v) > 0 {
					t.Fatalf("a mutant that obeys the rule was reported:\n%s", strings.Join(v, "\n"))
				}
				return
			}
			if !slices.ContainsFunc(v, func(s string) bool { return strings.Contains(s, m.want) }) {
				t.Fatalf("mutant not caught: want a violation containing %q, got %q", m.want, v)
			}
		})
	}
}

func TestGoroutineAllowList(t *testing.T) {
	checkRule(t, goroutineViolations, []mutation{
		{"a goroutine clock in simnet", "simnet/clock.go",
			"package simnet\n\nfunc (n *Network) tick() { go n.Step() }\n",
			"simnet/clock.go: go statement outside the allow-list"},
		{"a spawner moved out of an allow-listed file", "ctrlnet/udp.go",
			"package ctrlnet\n\nfunc (u *UDP) start() { u.readLoop(nil) }\n",
			"ctrlnet/udp.go: on the goroutine allow-list"},
		{"reconfig takes a lock", "reconfig/lock.go",
			"package reconfig\n\nimport \"sync\"\n\nvar mu sync.Mutex\n",
			"reconfig/lock.go: reconfig imports sync"},
		{"reconfig counts atomically under another name", "reconfig/count.go",
			"package reconfig\n\nimport at \"sync/atomic\"\n\nvar n at.Int64\n",
			"reconfig imports sync/atomic"},
	})
}

func TestServerMachineRule(t *testing.T) {
	const server, shell = "svc/server.go", "svc/svc.go"
	checkRule(t, serverMachineViolations, []mutation{
		{"the core reads the clock", server,
			"package svc\n\nimport \"time\"\n\nfunc (m *machine) stamp() time.Time { return time.Now() }\n",
			"reads the clock: time.Now"},
		{"the core reads the clock through a renamed import", server,
			"package svc\n\nimport clock \"time\"\n\nfunc (m *machine) age(t clock.Time) clock.Duration { return clock.Since(t) }\n",
			"reads the clock: time.Since"},
		{"the core records a metric", server,
			"package svc\n\nimport \"repro/internal/obs\"\n\nvar reg = obs.NewRegistry()\n",
			"uses repro/internal/obs.NewRegistry"},
		{"the core holds a transport", server,
			"package svc\n\nimport \"repro/internal/ctrlnet\"\n\ntype shell struct{ tr ctrlnet.Transport }\n",
			"uses repro/internal/ctrlnet.Transport"},
		{"the core sends a reply", server,
			"package svc\n\nfunc (c *Server) reply(to int, b []byte) { c.tr.Send(to, b) }\n",
			"a .Send call other than c.lan.Send"},
		{"the core puts cells into the data plane", server,
			"package svc\n\nimport \"time\"\n\nfunc (c *Server) drive(vc uint32, p [48]byte, _ time.Time) { c.lan.Send(vc, p) }\n",
			""},
		{"the shell reads the wall clock", shell,
			"package svc\n\nimport \"time\"\n\nfunc (s *Server) tick() { s.sweep(time.Now()) }\n",
			"calls time.Now"},
		{"the shell defaults Config.Now to the wall clock", shell,
			"package svc\n\nimport \"time\"\n\nfunc defaults(c *Config) { c.Now = time.Now }\n",
			""},
	})
}
