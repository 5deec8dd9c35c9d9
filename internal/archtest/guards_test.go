package archtest

import (
	"go/ast"
	"go/token"
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// These rules guard what earlier changes removed or reshaped, so that it
// stays that way: one engine per job, admission as a lookup, one adoption
// of the topology per reconfiguration, flat frame schedules, a switch step
// that walks set bits, a cell path that hashes nothing, one client
// machine. The last rule keeps the docs' test citations true.

// removedIdents are names of knobs, engines and helpers that were deleted
// because a simpler mechanism does their job. No identifier anywhere under
// internal/ or cmd/, tests included, may contain one: a name built on a
// removed one (NewConcurrentRunner, fromGuaranteedQ) brings it back too.
var removedIdents = []string{
	// One engine per job: stepping, reconfiguration and recovery.
	"EventDriven", "StepGroups", "WallTimeout", "newQuiesce", "NewConcurrent",
	"RunUnreliableScopedOver", "NewController", "RunPhases",
	// The steady-state fast-forward.
	"FastForward", "ReplaySince", "ObserveN", "ApplySteady", "ShiftStamps", "steadySignature",
	// The switch's per-class bookkeeping that the crossbar state replaced.
	"fromGuaranteed", "fromBestEffort", "outBusy",
}

// removedPackages are deleted packages that must not be imported again.
var removedPackages = []string{"repro/internal/eventsim", "repro/internal/faultsim"}

// removedKnobViolations: no identifier in a file under internal/ or cmd/
// (tests included) contains a removed name, and no non-test file there
// imports a removed package (a test file that did would not build) or
// declares a Workers field in a type named Config. Comments and strings
// are free to name what was removed.
func removedKnobViolations(files []source) []string {
	var v []string
	for _, s := range files {
		if !strings.HasPrefix(s.path, "internal/") && !strings.HasPrefix(s.path, "cmd/") {
			continue
		}
		for _, id := range s.idents {
			for _, r := range removedIdents {
				if strings.Contains(id, r) {
					v = append(v, s.path+": names removed identifier "+r+" ("+id+")")
				}
			}
		}
		if s.file == nil {
			continue
		}
		for _, pkg := range removedPackages {
			if importName(s.file, pkg) != "" {
				v = append(v, s.path+": imports removed package "+pkg)
			}
		}
		if _, ok := slices.BinarySearch(s.idents, "Workers"); !ok {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == "Config" && hasField(st, "Workers") {
					v = append(v, s.path+": Config declares the removed Workers knob")
				}
			}
			return true
		})
	}
	return v
}

func hasField(st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == name {
				return true
			}
		}
	}
	return false
}

// benchSnapshotViolations: bench/ is the one performance ledger, so the
// repository root holds no committed an2bench snapshot (BENCH_<n>.json).
func benchSnapshotViolations(names []string) []string {
	var v []string
	for _, n := range names {
		if ok, _ := path.Match("BENCH_[0-9]*.json", n); ok {
			v = append(v, n+": a committed an2bench snapshot")
		}
	}
	return v
}

func TestRemovedKnobsStayRemoved(t *testing.T) {
	checkRuleOn(t, repoFiles(t), removedKnobViolations, []mutation{
		{"a worker-pool knob returns", "internal/simnet/config.go",
			"package simnet\n\ntype Config struct{ Workers int }\n",
			"Config declares the removed Workers knob"},
		{"a second stepping engine returns in a test", "internal/simnet/event_test.go",
			"package simnet\n\nfunc init() { cfg := Config{}; cfg.EventDriven = true }\n",
			"names removed identifier EventDriven"},
		{"the fast-forward returns in a command", "cmd/an2sim/ff.go",
			"package main\n\nfunc fastForward(n *net) { n.FastForward(100) }\n",
			"names removed identifier FastForward"},
		{"a name built on a removed one", "internal/reconfig/runner.go",
			"package reconfig\n\nfunc NewConcurrentRunner() {}\n",
			"names removed identifier NewConcurrent (NewConcurrentRunner)"},
		{"a removed queue returns under a suffix in a test", "internal/switchnode/q_test.go",
			"package switchnode\n\nvar fromGuaranteedQ []int\n",
			"names removed identifier fromGuaranteed (fromGuaranteedQ)"},
		{"a deleted package is imported under another name", "internal/exp/old.go",
			"package exp\n\nimport es \"repro/internal/eventsim\"\n\nvar _ = es.Run\n",
			"imports removed package repro/internal/eventsim"},
		{"a Workers field outside a Config", "internal/workload/pool.go",
			"package workload\n\ntype pool struct{ Workers int }\n",
			""},
		{"a comment may recall the removed engine", "internal/simnet/doc_test.go",
			"package simnet\n\n// The EventDriven engine was deleted.\nvar _ = \"FastForward\"\n",
			""},
	})
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if v := benchSnapshotViolations(names); len(v) > 0 {
		t.Fatalf("the tree breaks the rule:\n%s", strings.Join(v, "\n"))
	}
	if v := benchSnapshotViolations(append(names, "BENCH_31.json")); len(v) == 0 {
		t.Fatal("a committed snapshot was not caught")
	}
}

// admissionViolations: admission is a lookup. No non-test routing file
// keys a map by routeState or imports container/heap (per-request search
// state). The adjacency copy, topology.LinksOf, is on the export
// allow-list, which keeps every non-test caller off it.
func admissionViolations(files []source) []string {
	var v []string
	for _, s := range files {
		if !strings.HasPrefix(s.path, "routing/") {
			continue
		}
		if importName(s.file, "container/heap") != "" {
			v = append(v, s.path+": imports container/heap")
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if m, ok := n.(*ast.MapType); ok {
				if k, ok := m.Key.(*ast.Ident); ok && k.Name == "routeState" {
					v = append(v, s.path+": a map keyed by routeState")
				}
			}
			return true
		})
	}
	return v
}

func TestAdmissionIsALookup(t *testing.T) {
	checkRule(t, admissionViolations, []mutation{
		{"a per-request visited map", "routing/search.go",
			"package routing\n\ntype routeState struct{ node int }\n\nvar seen = map[routeState]bool{}\n",
			"a map keyed by routeState"},
		{"a priority queue on the set-up path", "routing/pq.go",
			"package routing\n\nimport pq \"container/heap\"\n\nvar _ = pq.Init\n",
			"imports container/heap"},
		{"a map keyed by another type", "routing/cache.go",
			"package routing\n\nvar seen = map[int]bool{}\n",
			""},
	})
}

// method returns the body of the method name on receiver *recv in f.
func method(f *ast.File, recv, name string) *ast.BlockStmt {
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || fn.Name.Name != name || len(fn.Recv.List) != 1 {
			continue
		}
		if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok && id.Name == recv {
				return fn.Body
			}
		}
	}
	return nil
}

// inMethod runs check on the body of file's method recv.name, reporting
// the method missing when file has none.
func inMethod(files []source, file, recv, name string, check func(f *ast.File, body *ast.BlockStmt) []string) []string {
	for _, s := range files {
		if s.path != file {
			continue
		}
		if body := method(s.file, recv, name); body != nil {
			return check(s.file, body)
		}
	}
	return []string{file + ": (*" + recv + ")." + name + " missing (the rule names it)"}
}

// completeViolations: a reconfiguration costs the topology once. The
// completing machine, (*machine).complete in reconfig/protocol.go, adopts
// the link list it is handed: it neither sorts it (sort.Slice*) nor copies
// it (append([]LinkRec(nil), ...)).
func completeViolations(files []source) []string {
	const p = "reconfig/protocol.go"
	return inMethod(files, p, "machine", "complete", func(f *ast.File, body *ast.BlockStmt) []string {
		var v []string
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := pkgSelector(f, call.Fun, "sort"); ok && strings.HasPrefix(sel, "Slice") {
				v = append(v, p+": complete sorts the links (sort."+sel+")")
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 && isNilLinkRecs(call.Args[0]) {
				v = append(v, p+": complete copies the links")
			}
			return true
		})
		return v
	})
}

// isNilLinkRecs reports whether e is []LinkRec(nil).
func isNilLinkRecs(e ast.Expr) bool {
	conv, ok := e.(*ast.CallExpr)
	if !ok || len(conv.Args) != 1 {
		return false
	}
	at, ok := conv.Fun.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	elt, ok := at.Elt.(*ast.Ident)
	arg, isIdent := conv.Args[0].(*ast.Ident)
	return ok && elt.Name == "LinkRec" && isIdent && arg.Name == "nil"
}

func TestCompleteAdoptsTheList(t *testing.T) {
	const p = "reconfig/protocol.go"
	checkRule(t, completeViolations, []mutation{
		{"complete sorts", p,
			"package reconfig\n\nimport \"sort\"\n\nfunc (mc *machine) complete(links []LinkRec, emit emitFunc) {\n\tsort.Slice(links, nil)\n}\n",
			"complete sorts the links (sort.Slice)"},
		{"complete copies", p,
			"package reconfig\n\nfunc (mc *machine) complete(links []LinkRec, emit emitFunc) {\n\tmc.view = append([]LinkRec(nil), links...)\n}\n",
			"complete copies the links"},
		{"complete is renamed away", p,
			"package reconfig\n\nfunc (mc *machine) finish(links []LinkRec, emit emitFunc) {}\n",
			"(*machine).complete missing"},
		{"another method may sort", p,
			"package reconfig\n\nimport \"sort\"\n\nfunc (mc *machine) complete(links []LinkRec, emit emitFunc) {}\n\nfunc (mc *machine) recSet(l []LinkRec) { sort.Slice(l, nil) }\n",
			""},
	})
}

// scheduleViolations: a reservation is a word scan. No struct type in a
// non-test schedule file stores a slice of slices of integers ([][]int,
// [][]int16, [][]uint64, ...); the frame schedule is flat slot arrays plus
// per-port free-slot sets.
func scheduleViolations(files []source) []string {
	var v []string
	for _, s := range files {
		if !strings.HasPrefix(s.path, "schedule/") {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if _, ok := ts.Type.(*ast.StructType); !ok {
				return false
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				if isIntMatrix(n) {
					v = append(v, s.path+": struct "+ts.Name.Name+" stores a [][]int matrix")
				}
				return true
			})
			return false
		})
	}
	return v
}

func isIntMatrix(n ast.Node) bool {
	outer, ok := n.(*ast.ArrayType)
	if !ok || outer.Len != nil {
		return false
	}
	inner, ok := outer.Elt.(*ast.ArrayType)
	if !ok || inner.Len != nil {
		return false
	}
	id, ok := inner.Elt.(*ast.Ident)
	return ok && (strings.HasPrefix(id.Name, "int") || strings.HasPrefix(id.Name, "uint"))
}

func TestScheduleIsFlat(t *testing.T) {
	checkRule(t, scheduleViolations, []mutation{
		{"slices of slices come back", "schedule/matrix.go",
			"package schedule\n\ntype Schedule struct {\n\tslots [][]int\n}\n",
			"struct Schedule stores a [][]int matrix"},
		{"nested in a field's struct", "schedule/nested.go",
			"package schedule\n\ntype port struct {\n\tfree struct{ rows map[int][][]int }\n}\n",
			"struct port stores a [][]int matrix"},
		{"per-slot rows as narrow integers", "schedule/rows.go",
			"package schedule\n\ntype Schedule struct {\n\toutOf, inOf [][]int16\n}\n",
			"struct Schedule stores a [][]int matrix"},
		{"a free-slot set per port and frame", "schedule/sets.go",
			"package schedule\n\ntype Schedule struct {\n\tfree [][]uint64\n}\n",
			"struct Schedule stores a [][]int matrix"},
		{"a function may return the Figure 2 matrix", "schedule/fig2.go",
			"package schedule\n\nfunc (s *Schedule) Reservations() [][]int { return nil }\n",
			""},
	})
}

// switchStepViolations: a switch step walks set bits. (*Switch).Step in
// switchnode/switchnode.go has no loop bound `< s.n`: it never visits
// every port.
func switchStepViolations(files []source) []string {
	const p = "switchnode/switchnode.go"
	return inMethod(files, p, "Switch", "Step", func(_ *ast.File, body *ast.BlockStmt) []string {
		var v []string
		ast.Inspect(body, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.LSS || b.Op == token.LEQ) && isField(b.Y, "s", "n") {
				v = append(v, p+": Step compares against s.n: an all-ports loop")
			}
			return true
		})
		return v
	})
}

// isField reports whether e is x.sel.
func isField(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return false
	}
	id, ok := s.X.(*ast.Ident)
	return ok && id.Name == x
}

func TestSwitchStepWalksSetBits(t *testing.T) {
	const p = "switchnode/switchnode.go"
	checkRule(t, switchStepViolations, []mutation{
		{"an all-ports loop", p,
			"package switchnode\n\nfunc (s *Switch) Step() []Departure {\n\tfor i := 0; i < s.n; i++ {\n\t}\n\treturn nil\n}\n",
			"Step compares against s.n"},
		{"Step is renamed away", p,
			"package switchnode\n\nfunc (s *Switch) Advance() []Departure { return nil }\n",
			"(*Switch).Step missing"},
		{"another method may visit every port", p,
			"package switchnode\n\nfunc (s *Switch) Step() []Departure { return nil }\n\nfunc (s *Switch) CheckInvariant() {\n\tfor i := 0; i < s.n; i++ {\n\t}\n}\n",
			""},
	})
}

// cellPathTypes are the simnet records a cell passes through.
var cellPathTypes = []string{"Network", "Circuit", "host"}

// cellPathViolations: the cell path hashes nothing. buffer/buffer.go (the
// line card) holds no map at all, and simnet's Network, Circuit and host
// records hold no map keyed by cell.VCI.
func cellPathViolations(files []source) []string {
	var v []string
	for _, s := range files {
		switch s.path {
		case "buffer/buffer.go":
			ast.Inspect(s.file, func(n ast.Node) bool {
				if _, ok := n.(*ast.MapType); ok {
					v = append(v, s.path+": a map in the line card")
				}
				return true
			})
		case "simnet/simnet.go":
			ast.Inspect(s.file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if !slices.Contains(cellPathTypes, ts.Name.Name) {
					return false
				}
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					if m, ok := n.(*ast.MapType); ok {
						if sel, ok := pkgSelector(s.file, m.Key, "repro/internal/cell"); ok && sel == "VCI" {
							v = append(v, s.path+": "+ts.Name.Name+" holds a map keyed by cell.VCI")
						}
					}
					return true
				})
				return false
			})
		}
	}
	return v
}

func TestCellPathHashesNothing(t *testing.T) {
	checkRule(t, cellPathViolations, []mutation{
		{"a map in the line card", "buffer/buffer.go",
			"package buffer\n\ntype PerVC struct{ depth map[uint32]int }\n",
			"a map in the line card"},
		{"the network indexes circuits by VCI", "simnet/simnet.go",
			"package simnet\n\nimport c \"repro/internal/cell\"\n\ntype Network struct{ circuits map[c.VCI]*Circuit }\n",
			"Network holds a map keyed by cell.VCI"},
		{"a map off the cell path", "simnet/simnet.go",
			"package simnet\n\nimport \"repro/internal/cell\"\n\ntype report struct{ byVC map[cell.VCI]int }\n",
			""},
	})
}

// clientMachineViolations: one client machine. svc/client.go and
// svc/session.go arm no timer (time.NewTimer, time.AfterFunc) and make no
// channel — the client waits in its own call — and no non-test file in
// chaos/ or svcsys/ encodes or decodes a frame itself (proto.Marshal,
// proto.Unmarshal): every tenant frame goes through the session core.
func clientMachineViolations(files []source) []string {
	var v []string
	for _, s := range files {
		client := s.path == "svc/client.go" || s.path == "svc/session.go"
		composed := strings.HasPrefix(s.path, "chaos/") || strings.HasPrefix(s.path, "svcsys/")
		if !client && !composed {
			continue
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := pkgSelector(s.file, call.Fun, "time"); client && ok && (sel == "NewTimer" || sel == "AfterFunc") {
				v = append(v, s.path+": arms a timer: time."+sel)
			}
			if id, ok := call.Fun.(*ast.Ident); client && ok && id.Name == "make" && len(call.Args) > 0 {
				if _, ok := call.Args[0].(*ast.ChanType); ok {
					v = append(v, s.path+": makes a channel")
				}
			}
			if sel, ok := pkgSelector(s.file, call.Fun, "repro/internal/proto"); composed && ok && (sel == "Marshal" || sel == "Unmarshal") {
				v = append(v, s.path+": builds frames itself: proto."+sel)
			}
			return true
		})
	}
	return v
}

func TestOneClientMachine(t *testing.T) {
	checkRule(t, clientMachineViolations, []mutation{
		{"the client arms a timer", "svc/client.go",
			"package svc\n\nimport \"time\"\n\nfunc (c *Client) arm() { time.AfterFunc(time.Second, nil) }\n",
			"arms a timer: time.AfterFunc"},
		{"the session waits on a channel", "svc/session.go",
			"package svc\n\nfunc (s *Session) wait() { done := make(chan struct{}); <-done }\n",
			"svc/session.go: makes a channel"},
		{"a chaos tenant encodes its own frame", "chaos/svcchaos.go",
			"package chaos\n\nimport wire \"repro/internal/proto\"\n\nfunc frame(m *wire.Message) ([]byte, error) { return wire.Marshal(m) }\n",
			"chaos/svcchaos.go: builds frames itself: proto.Marshal"},
		{"the composed system decodes a reply itself", "svcsys/svcsys.go",
			"package svcsys\n\nimport \"repro/internal/proto\"\n\nfunc peek(b []byte) { proto.Unmarshal(b) }\n",
			"builds frames itself: proto.Unmarshal"},
		{"the server shell may make channels", "svc/svc.go",
			"package svc\n\nfunc stop() chan struct{} { return make(chan struct{}) }\n",
			""},
	})
}

// citedTest matches a Test function name inside a backticked doc span,
// with an optional trailing * meaning "any test with this prefix".
var citedTest = regexp.MustCompile(`(?:^|[^A-Za-z0-9_])(Test[A-Z0-9_][A-Za-z0-9_]*)(\*?)`)

var backticked = regexp.MustCompile("`([^`\n]*)`")

// citationViolations: every backticked Test… name in the docs names a
// test function declared in some _test.go file of the repository.
func citationViolations(docs map[string]string, files []source) []string {
	var tests []string
	for _, s := range files {
		tests = append(tests, s.tests...)
	}
	names := make([]string, 0, len(docs))
	for d := range docs {
		names = append(names, d)
	}
	slices.Sort(names)
	var v []string
	for _, doc := range names {
		for _, span := range backticked.FindAllStringSubmatch(docs[doc], -1) {
			for _, m := range citedTest.FindAllStringSubmatch(span[1], -1) {
				name, prefix := m[1], m[2] == "*"
				if !slices.ContainsFunc(tests, func(t string) bool {
					return t == name || prefix && strings.HasPrefix(t, name)
				}) {
					v = append(v, doc+": cites "+name+m[2]+", which no test declares")
				}
			}
		}
	}
	return v
}

func TestDocsCiteRealTests(t *testing.T) {
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		b, err := os.ReadFile(path.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	files := repoFiles(t)
	if v := citationViolations(docs, files); len(v) > 0 {
		t.Fatalf("the docs cite tests that do not exist:\n%s", strings.Join(v, "\n"))
	}
	for _, m := range []struct{ name, text, want string }{
		{"a test renamed away", "see `chaos.TestSvcChaosSuitePasses`", "cites TestSvcChaosSuitePasses"},
		{"a prefix nothing has", "`go test -run 'TestNoSuchFamily*'`", "cites TestNoSuchFamily*"},
		{"a prefix a test has", "every `TestSvcChaos*` test", ""},
		{"a qualified name that exists", "`archtest.TestDocsCiteRealTests`", ""},
	} {
		t.Run(m.name, func(t *testing.T) {
			v := citationViolations(map[string]string{"README.md": m.text}, files)
			if m.want == "" && len(v) > 0 || m.want != "" && !slices.ContainsFunc(v, func(s string) bool { return strings.Contains(s, m.want) }) {
				t.Fatalf("want a violation containing %q, got %q", m.want, v)
			}
		})
	}
}
