package passivelight

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the module functions that no production path
// reaches but that stay on purpose. Each reason starts with its kind:
//
//   - chaos harness: fault-injection code the cluster tests drive;
//   - reference model: a direct implementation tests compare the
//     optimised production path against;
//   - test seam: an accessor, option or fixture constructor tests
//     work through.
//
// Functions reached only from an allowlisted function are kept with it
// and need no entry of their own.
var reachAllowlist = map[string]string{
	"internal/cluster/chaos.NewInjector":             "chaos harness: fault injector TestClusterChurnSelfHealing and the chaos tests wrap connections with",
	"internal/cluster/chaos.NewProxy":                "chaos harness: faulty TCP hop TestClusterChurnSelfHealing severs",
	"(*internal/cluster/chaos.Injector).Injected":    "chaos harness: fault counter the churn and chaos tests assert on",
	"(*internal/cluster/chaos.Script).Start":         "chaos harness: scripted kill/restart schedule TestScriptRunsStepsInOrder and the plnet e2e tests run",
	"internal/channel.LevelAt":                       "reference model: the direct per-instant level TestLevelAtMatchesRender compares Render against",
	"(*internal/coding.Codebook).VerifyDistances":    "reference model: brute-force pairwise distances TestCodebookInvariants checks the greedy codebook against",
	"internal/channel.PlanSpecialized":               "test seam: BenchmarkRenderOutdoorPass and BenchmarkScenarioMultiLane assert the render plan is specialized",
	"(*internal/rxnet.ChunkListener).ReceivedChunks": "test seam: TestChunkListenerCloseDrainsQueued asserts the chunk-accounting identity through it",
	"(*internal/rxnet.ChunkListener).RefusedChunks":  "test seam: TestChunkListenerDrainRefusesNewStreams counts NACK-refused chunks through it",
	"(*internal/rxnet.Node).Resent":                  "test seam: the failover tests assert resent tails through it",
	"(*internal/rxnet.Node).Redials":                 "test seam: TestClusterChurnSelfHealing asserts node redials through it",
	"(*internal/rxnet.Node).Paused":                  "test seam: TestClusterChurnSelfHealing asserts throttle release through it",
	"internal/coding.MustPacket":                     "test seam: the fixture constructor of the coding, channel, scene, tag, decoder, stream and root tests",
	"passivelight.WithMaxSessions":                   "test seam: the load tests shrink the session table through it; every binary runs the default 65536",
}

// stdlibInterfaces are the standard-library interfaces through which
// the library itself calls module methods: fmt's verbs, sort and heap,
// io copying, json and text encoding, and http serving. The walk
// cannot see those calls, so a method counts as reached when it helps
// a module type satisfy one of them.
var stdlibInterfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "Formatter"}, {"fmt", "GoStringer"},
	{"sort", "Interface"}, {"container/heap", "Interface"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"}, {"io", "WriterTo"}, {"io", "ReaderFrom"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"net/http", "Handler"},
}

// errorMethods are the methods packages errors and net call, through
// anonymous interfaces, on values that implement error.
var errorMethods = []string{"Error", "Unwrap", "Is", "As", "Timeout", "Temporary"}

type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// goList runs `go list -deps -export -json` on patterns in dir.
func goList(t *testing.T, dir string, patterns ...string) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json=Dir,ImportPath,Name,Export,GoFiles,Imports,Standard"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter type-checks module packages from source and reads
// standard-library packages from their compiled export data.
type moduleImporter struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := m.listed[path]
	if !ok {
		return nil, errors.New("package not listed: " + path)
	}
	if p.Standard {
		return m.std.Import(path)
	}
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.checked[path] = pkg
	m.files[path] = files
	return pkg, nil
}

// TestProductionReachesAllInternalCode walks the call graph from every
// production entry point — the cmd/ and examples/ binaries and the
// perfbench module — and fails on any function declared in the root
// package or under internal/ that the walk does not reach and
// reachAllowlist does not name. The root package's exported API is no
// entry point: a public function, method or Option that no binary,
// example or the benchmark calls is dead code like any other, and so
// is every branch only it selects. A call through an interface method
// reaches every method of that name. Package initialisers (init
// functions and package-level variable values) of every linked package
// are entry points too.
func TestProductionReachesAllInternalCode(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not on PATH")
	}
	mainPkgs := goList(t, ".", "./cmd/...", "./examples/...", ".", "./internal/...")
	benchPkgs := goList(t, "perfbench", ".")

	fset := token.NewFileSet()
	listed := map[string]*listedPackage{}
	for _, p := range append(mainPkgs, benchPkgs...) {
		listed[p.ImportPath] = p
	}
	m := &moduleImporter{
		fset: fset, listed: listed,
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			p, ok := listed[path]
			if !ok || p.Export == "" {
				return nil, errors.New("no export data for " + path)
			}
			return os.Open(p.Export)
		}),
	}
	const module = "passivelight"
	var roots []string
	for _, p := range listed {
		if p.Standard {
			continue
		}
		if _, err := m.Import(p.ImportPath); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		if p.Name == "main" {
			roots = append(roots, p.ImportPath)
		}
	}

	// Index every declared function and method of the module.
	decls := map[*types.Func]*ast.FuncDecl{}
	byName := map[string][]*types.Func{}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				decls[fn] = fd
				if fd.Recv != nil {
					byName[fn.Name()] = append(byName[fn.Name()], fn)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	var queue []*types.Func
	mark := func(fn *types.Func) {
		if !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	visit := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := m.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, impl := range byName[fn.Name()] {
					mark(impl)
				}
				return true
			}
			mark(fn)
			return true
		})
	}
	walk := func() {
		for len(queue) > 0 {
			fn := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if fd := decls[fn]; fd != nil && fd.Body != nil {
				visit(fd.Body)
			}
		}
	}

	// Entry points: the linked packages' initialisers and main
	// functions; methods the standard library calls back follow below.
	linked := map[string]bool{}
	var link func(path string)
	link = func(path string) {
		p := listed[path]
		if linked[path] || p == nil || p.Standard {
			return
		}
		linked[path] = true
		for _, imp := range p.Imports {
			link(imp)
		}
	}
	for _, r := range roots {
		link(r)
	}
	for path := range linked {
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						visit(d)
					}
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && m.checked[path].Name() == "main")) {
						mark(m.info.Defs[d.Name].(*types.Func))
					}
				}
			}
		}
	}
	type dispatch struct {
		iface *types.Interface
		names []string
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	dispatches := []dispatch{{errIface, errorMethods}}
	for _, in := range stdlibInterfaces {
		if listed[in[0]] == nil {
			continue // nothing links the package, so it never calls back
		}
		pkg, err := m.std.Import(in[0])
		if err != nil {
			t.Fatal(err)
		}
		iface := pkg.Scope().Lookup(in[1]).Type().Underlying().(*types.Interface)
		d := dispatch{iface: iface}
		for i := 0; i < iface.NumMethods(); i++ {
			d.names = append(d.names, iface.Method(i).Name())
		}
		dispatches = append(dispatches, d)
	}
	for _, pkg := range m.checked {
		for _, n := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for _, d := range dispatches {
				if !types.Implements(ptr, d.iface) {
					continue
				}
				for _, name := range d.names {
					if sel := mset.Lookup(nil, name); sel != nil {
						mark(sel.Obj().(*types.Func).Origin())
					}
				}
			}
		}
	}
	walk()

	name := func(fn *types.Func) string {
		return strings.ReplaceAll(fn.FullName(), module+"/", "")
	}
	byFull := map[string]*types.Func{}
	for fn := range decls {
		byFull[name(fn)] = fn
	}
	var stale []string
	for entry := range reachAllowlist {
		fn, ok := byFull[entry]
		switch {
		case !ok:
			stale = append(stale, entry+" (no such function)")
		case reached[fn]:
			stale = append(stale, entry+" (production reaches it)")
		default:
			mark(fn)
		}
	}
	walk()

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for fn, fd := range decls {
		if reached[fn] || (fn.Pkg().Path() != module && !strings.HasPrefix(fn.Pkg().Path(), module+"/internal/")) {
			continue
		}
		pos := fset.Position(fd.Pos())
		rel, _ := filepath.Rel(wd, pos.Filename)
		dead = append(dead, name(fn)+"  ("+rel+")")
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("stale reachAllowlist entry: %s", s)
	}
	if len(dead) > 0 {
		t.Errorf("%d module functions are reached by no production path; delete them or add them to reachAllowlist with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}
