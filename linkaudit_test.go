package forestview

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// allowlistPath holds the functions under internal/ that no binary links
// and that stay anyway: one line each, the symbol as go tool nm spells it
// (or a whole package's import path), a tab, and the reason.
const allowlistPath = "testdata/unlinked.txt"

// TestEveryFunctionIsLinked holds production code to what a binary links.
// It builds every main package under cmd/ and examples/, and bench/ from
// its own module, with inlining off for this module's packages so every
// function a binary calls keeps its symbol. Then it fails on any function
// declared in a non-test file under internal/ that no binary links and
// allowlistPath does not name, and on any allowlist entry that is now
// linked or no longer exists.
//
// A binary that can call a method by name (html/template's field lookup
// does, through reflect.Value.MethodByName) makes the linker keep every
// exported method of every type converted to an interface, called or not.
// In such a binary a symbol counts as linked only if non-test code reaches
// it (see moduleRefs), so a method only that retention kept, and whatever
// only it calls, is reported like any other unlinked function.
//
// The symbol sets differ per architecture (internal/tilecorr picks its
// routines by GOARCH), so the test runs on amd64 only.
func TestEveryFunctionIsLinked(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the allowlist is written for amd64's symbol set")
	}
	var bins []binarySyms
	reflective := false
	for _, bin := range buildAllBinaries(t, t.TempDir()) {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		b := readNM(string(out))
		bins = append(bins, b)
		reflective = reflective || b.reflective
	}
	var refs *refGraph
	if reflective {
		refs = moduleRefs(t)
	}
	decls := declaredFuncs(t, "internal")
	allow := readAllowlist(t, allowlistPath)
	unlisted, stale := auditLinks(decls, linkedFuncs(bins, refs), allow)
	for _, fn := range unlisted {
		t.Errorf("%s: %s is linked by no binary: delete it, or add it to %s with its reason", decls[fn], fn, allowlistPath)
	}
	for _, e := range stale {
		t.Errorf("%s: entry %s is stale: it is linked now, or it no longer exists", allowlistPath, e)
	}
}

// binarySyms is what the audit reads of one binary: this module's
// functions in its symbol table, and whether it links a way to call a
// method by name.
type binarySyms struct {
	funcs      map[string]bool
	reflective bool
}

// readNM reads go tool nm's output for one binary.
func readNM(out string) binarySyms {
	b := binarySyms{funcs: map[string]bool{}}
	for _, line := range strings.Split(out, "\n") {
		if m := nmLine.FindStringSubmatch(line); m != nil && m[1] == "T" &&
			(m[2] == "reflect.Value.Method" || m[2] == "reflect.Value.MethodByName") {
			b.reflective = true
		}
		if fn, ok := nmFunc(line); ok {
			b.funcs[fn] = true
		}
	}
	return b
}

// linkedFuncs returns the functions the binaries link. A binary that
// calls no method by name is taken at its symbol table. In one that does,
// a symbol counts only if refs reaches it from code that is live anyway:
// code outside internal/, package-level and init code, the names an
// interface or a template can call, and every function a binary of the
// first kind links.
func linkedFuncs(bins []binarySyms, refs *refGraph) map[string]bool {
	linked := map[string]bool{}
	for _, b := range bins {
		if !b.reflective {
			for fn := range b.funcs {
				linked[fn] = true
			}
		}
	}
	var live map[string]bool
	for _, b := range bins {
		if !b.reflective {
			continue
		}
		if live == nil {
			live = refs.reach(linked)
		}
		for fn := range b.funcs {
			if live[fn] {
				linked[fn] = true
			}
		}
	}
	return linked
}

// refGraph is this module's non-test code as references: each function's
// key (spelled as nmFunc spells its symbol) maps to the functions its body
// names, and to the methods it names as "." plus the method's name. A
// method is named by name alone, whatever its receiver, so the graph only
// ever errs towards reaching too much.
type refGraph struct {
	roots []string
	edges map[string][]string
}

// reach returns every key reachable from the roots and from extra.
func (g *refGraph) reach(extra map[string]bool) map[string]bool {
	byName := map[string][]string{}
	for k := range g.edges {
		if m, ok := methodName(k); ok {
			byName["."+m] = append(byName["."+m], k)
		}
	}
	queue := append([]string(nil), g.roots...)
	for k := range extra {
		queue = append(queue, k)
	}
	live := map[string]bool{}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[k] {
			continue
		}
		live[k] = true
		queue = append(queue, g.edges[k]...)
		queue = append(queue, byName[k]...)
	}
	return live
}

// methodName returns the name of the method a function key spells, and
// false for a plain function.
func methodName(key string) (string, bool) {
	rest := key[strings.LastIndex(key, "/")+1:]
	parts := strings.Split(rest, ".")
	if len(parts) < 3 {
		return "", false
	}
	return parts[len(parts)-1], true
}

// moduleRefs builds the reference graph of this module and of bench/, the
// non-test files their builds compile, type-checked against the export
// data go list -export leaves. Its roots are every function outside
// internal/, package-level and init code, every method name an interface
// declares (in the module or in any package a binary depends on, GOROOT's
// parsed from source) and every name a template in the module selects.
func moduleRefs(t *testing.T) *refGraph {
	t.Helper()
	type listed struct {
		path, dir, export string
		files             []string
	}
	var pkgs []listed
	seen := map[string]bool{}
	for _, c := range []struct{ dir, pattern string }{{".", "./..."}, {"bench", "."}} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f",
			`{{.ImportPath}}{{"\t"}}{{.Dir}}{{"\t"}}{{.Export}}{{"\t"}}{{join .GoFiles " "}} {{join .CgoFiles " "}}`, c.pattern)
		cmd.Dir = c.dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", c.dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "\t")
			if len(f) != 4 || seen[f[0]] {
				continue
			}
			seen[f[0]] = true
			pkgs = append(pkgs, listed{f[0], f[1], f[2], strings.Fields(f[3])})
		}
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.path] = p.export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	g := &refGraph{edges: map[string][]string{}}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			g.roots = append(g.roots, interfaceMethods(f)...)
		}
		if p.path != "forestview" && !strings.HasPrefix(p.path, "forestview/") {
			continue
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.path, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		for _, f := range files {
			g.addFile(p.path, f, info)
		}
	}
	return g
}

// templateAction finds the actions of a template, and templateName the
// names an action selects.
var (
	templateAction = regexp.MustCompile(`(?s)\{\{.*?\}\}`)
	templateName   = regexp.MustCompile(`\.([A-Za-z_][A-Za-z0-9_]*)`)
)

// addFile adds one type-checked file of package pkg to the graph. The
// functions of a package outside internal/ are roots, as are the
// references of its package-level declarations and init functions, and
// every name a template in one of its string literals selects.
func (g *refGraph) addFile(pkg string, f *ast.File, info *types.Info) {
	root := !strings.HasPrefix(pkg, "forestview/internal/")
	for _, decl := range f.Decls {
		var refs []string
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[n].(*types.Func); ok {
					refs = append(refs, funcRef(fn))
				}
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					for _, action := range templateAction.FindAllString(n.Value, -1) {
						for _, m := range templateName.FindAllStringSubmatch(action, -1) {
							g.roots = append(g.roots, "."+m[1])
						}
					}
				}
			}
			return true
		})
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "init" {
			g.roots = append(g.roots, refs...)
			continue
		}
		key := pkg + "." + funcKey(fd)
		g.edges[key] = append(g.edges[key], refs...)
		if root {
			g.roots = append(g.roots, key)
		}
	}
}

// funcRef is the graph's key for a reference to fn: its symbol for a plain
// function, "." and its name for a method.
func funcRef(fn *types.Func) string {
	if fn.Type().(*types.Signature).Recv() != nil {
		return "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// interfaceMethods returns, as graph keys, the names of the methods every
// interface type in f declares, named types and literal ones alike.
func interfaceMethods(f *ast.File) []string {
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		if it, ok := n.(*ast.InterfaceType); ok {
			for _, m := range it.Methods.List {
				if _, ok := m.Type.(*ast.FuncType); ok {
					for _, name := range m.Names {
						names = append(names, "."+name.Name)
					}
				}
			}
		}
		return true
	})
	return names
}

// buildAllBinaries builds every binary the audit counts into dir and
// returns their paths.
func buildAllBinaries(t *testing.T, dir string) []string {
	t.Helper()
	const noInline = "-gcflags=forestview/...=-l"
	run := func(wd string, args ...string) {
		cmd := exec.Command("go", args...)
		cmd.Dir = wd
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	// go test caches this test's result keyed on the files the test itself
	// touches, not on what the go build below reads: stat every source
	// the binaries are built from, so that editing one reruns the audit.
	for _, root := range []string{"cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasSuffix(path, ".go") {
				_, err = os.Stat(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run(".", "build", "-o", dir+string(filepath.Separator), noInline, "./cmd/...", "./examples/...")
	run("bench", "build", "-o", filepath.Join(dir, "bench"), noInline, ".")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bins []string
	for _, e := range ents {
		bins = append(bins, filepath.Join(dir, e.Name()))
	}
	return bins
}

var (
	// nmLine splits a go tool nm line into its type letter and its name.
	// The address is blank for undefined symbols, and a name may hold
	// spaces (a generic's shape type).
	nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+([A-Za-z])\s+(.+)$`)
	// closureSuffix is what the compiler appends to the function a
	// closure, a go or defer wrapper or a method value comes from, and to
	// an assembly function's symbol.
	closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap|abi)?[0-9]+|-fm)$`)
)

// nmFunc turns one go tool nm line into the name of the function it
// belongs to, spelled as declaredFuncs spells it, with type arguments and
// closure suffixes stripped. It reports false for anything that is not
// this module's code.
func nmFunc(line string) (string, bool) {
	m := nmLine.FindStringSubmatch(line)
	if m == nil || (m[1] != "T" && m[1] != "t") || !strings.HasPrefix(m[2], "forestview/") {
		return "", false
	}
	name := stripTypeArgs(m[2])
	if strings.Contains(name, "..") {
		return "", false // compiler data: dictionaries, init tasks, stubs
	}
	for {
		trimmed := closureSuffix.ReplaceAllString(name, "")
		if trimmed == name {
			return name, true
		}
		name = trimmed
	}
}

// stripTypeArgs drops every bracketed type-argument list, nested ones
// included, from a symbol name.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredFuncs parses every non-test Go file under root that this
// platform's build compiles, and returns each function and method declared
// there, keyed as nmFunc spells its symbol, with its position. init
// functions are linked with their package and are left out.
func declaredFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	decls := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err // a file this platform's build leaves out
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "forestview/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			decls[pkg+"."+funcKey(fd)] = fset.Position(fd.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// funcKey spells a declaration as its symbol does after the package:
// Name, T.Name or (*T).Name, without the receiver's type parameters.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ, ptr := fd.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// readAllowlist reads allowlistPath's "symbol<TAB>reason" lines; blank
// lines and lines starting with # are skipped, and an entry without a
// reason is an error.
func readAllowlist(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, ok := strings.Cut(line, "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Fatalf("%s:%d: want symbol, a tab, then the reason: %q", path, i+1, line)
		}
		if _, dup := allow[sym]; dup {
			t.Fatalf("%s:%d: %s is listed twice", path, i+1, sym)
		}
		allow[sym] = reason
	}
	return allow
}

// auditLinks returns, sorted, the declared functions that are neither
// linked nor allowed (by symbol or by their package's import path), and
// the allowlist entries that excuse nothing: a symbol that is linked or no
// longer declared, or a package none of whose functions is unlinked.
func auditLinks(decls map[string]string, linked map[string]bool, allow map[string]string) (unlisted, stale []string) {
	used := map[string]bool{}
	for fn := range decls {
		if linked[fn] {
			continue
		}
		slash := strings.LastIndex(fn, "/")
		pkg := fn[:slash+strings.Index(fn[slash:], ".")]
		switch {
		case allow[fn] != "":
			used[fn] = true
		case allow[pkg] != "":
			used[pkg] = true
		default:
			unlisted = append(unlisted, fn)
		}
	}
	for e := range allow {
		if !used[e] {
			stale = append(stale, e)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	return unlisted, stale
}

func TestNMFunc(t *testing.T) {
	for _, c := range []struct {
		line, want string
	}{
		{"  74c6a0 T forestview/internal/cluster.squareCells[go.shape.int]",
			"forestview/internal/cluster.squareCells"},
		{"  7f0e20 T forestview/internal/server.serveShardPartial[go.shape.struct { Query []string; Shards []string; Replication int; Groups [][]string; Uniform bool },go.shape.struct { Parts []forestview/internal/shard.SearchPart },go.shape.*forestview/internal/shard.SearchRequest].func1",
			"forestview/internal/server.serveShardPartial"},
		{"  7e5a40 T forestview/internal/shard.(*genCache[go.shape.*uint8]).get.deferwrap1",
			"forestview/internal/shard.(*genCache).get"},
		{"  8d1e60 T forestview/internal/fleettest.(*Fleet[*forestview/internal/server.Server]).Close-fm",
			"forestview/internal/fleettest.(*Fleet).Close"},
		{"  74a180 T forestview/internal/cluster.buildDistances.func3.deferwrap1",
			"forestview/internal/cluster.buildDistances"},
		{"  74a0a0 T forestview/internal/cluster.buildDistances.gowrap1",
			"forestview/internal/cluster.buildDistances"},
		{"  748e80 T forestview/internal/cluster.(*Tree).Cut.func1",
			"forestview/internal/cluster.(*Tree).Cut"},
		{"  702040 T forestview/internal/tilecorr.cpuid.abi0",
			"forestview/internal/tilecorr.cpuid"},
		{"  74cac0 T forestview/internal/render.init.func1",
			"forestview/internal/render.init"},
		{"  73a2e0 T forestview/internal/spell.Engine.NumDatasets",
			"forestview/internal/spell.Engine.NumDatasets"},
		{"  a40ca0 R forestview/internal/cluster..dict.squareCells[int]", ""},
		{"  a42230 R forestview/internal/microarray..dict.grow[uint8]", ""},
		{"  4b3c20 T main.main", ""},
		{"  4f2d00 T runtime.mallocgc", ""},
	} {
		got, ok := nmFunc(c.line)
		if got != c.want || ok != (c.want != "") {
			t.Errorf("nmFunc(%q) = %q, %v; want %q", c.line, got, ok, c.want)
		}
	}
}

func TestAuditLinks(t *testing.T) {
	decls := map[string]string{
		"forestview/internal/a.Used":        "a.go:1",
		"forestview/internal/a.(*T).Oracle": "a.go:2",
		"forestview/internal/a.Planted":     "a.go:3",
		"forestview/internal/b.Experiment":  "b.go:1",
		"forestview/internal/b.T.Method":    "b.go:2",
		"forestview/internal/c.AllLinked":   "c.go:1",
		"forestview/internal/c.AlsoLinked":  "c.go:2",
	}
	linked := map[string]bool{
		"forestview/internal/a.Used":       true,
		"forestview/internal/a.Renamed":    true,
		"forestview/internal/c.AllLinked":  true,
		"forestview/internal/c.AlsoLinked": true,
	}
	allow := map[string]string{
		"forestview/internal/a.(*T).Oracle": "oracle",
		"forestview/internal/b":             "experiment",
		"forestview/internal/a.Used":        "stale: linked",
		"forestview/internal/a.Gone":        "stale: deleted",
		"forestview/internal/c":             "stale: every function linked",
	}
	unlisted, stale := auditLinks(decls, linked, allow)
	if want := []string{"forestview/internal/a.Planted"}; fmt.Sprint(unlisted) != fmt.Sprint(want) {
		t.Errorf("unlisted = %v, want %v", unlisted, want)
	}
	if want := []string{"forestview/internal/a.Gone", "forestview/internal/a.Used", "forestview/internal/c"}; fmt.Sprint(stale) != fmt.Sprint(want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
	t.Run("reflect-retention", auditReflectRetention)
}

// auditReflectRetention: in a binary that can call a method by name, a
// method the linker kept only for that counts as unlinked, and so does
// what only it calls, while a method an interface names, one a template
// selects and one live code calls stay linked.
func auditReflectRetention(t *testing.T) {
	const src = `package server

type Stringer interface{ String() string }

type Server struct{}

func New() *Server { s := &Server{}; s.Serve(); return s }

func (s *Server) Serve()          {}
func (s *Server) String() string  { return "" }
func (s *Server) NumGenes() int   { return 0 }
func (s *Server) Planted() string { return helper() }

func helper() string { return "" }

var page = "<p>{{.NumGenes}} genes</p>"
`
	const pkg = "forestview/internal/server"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "server.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	if _, err := new(types.Config).Check(pkg, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	refs := &refGraph{edges: map[string][]string{}, roots: interfaceMethods(f)}
	refs.addFile(pkg, f, info)
	refs.roots = append(refs.roots, pkg+".New") // as a main package calls it

	decls := map[string]string{}
	var nm []string
	for _, fn := range []string{"New", "(*Server).Serve", "(*Server).String", "(*Server).NumGenes", "(*Server).Planted", "helper"} {
		decls[pkg+"."+fn] = "server.go"
		nm = append(nm, "  4b3c20 T "+pkg+"."+fn)
	}
	reflective := readNM(strings.Join(append(nm, "  4a1000 T reflect.Value.MethodByName"), "\n"))
	if !reflective.reflective {
		t.Fatal("reflect.Value.MethodByName not seen")
	}
	unlisted, _ := auditLinks(decls, linkedFuncs([]binarySyms{reflective}, refs), nil)
	want := []string{pkg + ".(*Server).Planted", pkg + ".helper"}
	if fmt.Sprint(unlisted) != fmt.Sprint(want) {
		t.Errorf("reflective binary: unlisted = %v, want %v", unlisted, want)
	}
	plain := readNM(strings.Join(nm, "\n"))
	if unlisted, _ := auditLinks(decls, linkedFuncs([]binarySyms{plain}, refs), nil); len(unlisted) != 0 {
		t.Errorf("binary without reflection: unlisted = %v, want none", unlisted)
	}
}
