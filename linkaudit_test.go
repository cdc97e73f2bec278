package forestview

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
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
// declared in a non-test file under internal/ that no binary's symbol
// table holds and allowlistPath does not name, and on any allowlist entry
// that is now linked or no longer exists.
//
// A symbol table is the whole rule only while no binary can call a method
// by name: one that links reflect.Value.Method or MethodByName (as
// text/template's field lookup does) makes the linker keep every exported
// method of every type converted to an interface, called or not. So such a
// binary fails the test, named with the -dumpdep edge that links the call.
//
// The symbol sets differ per architecture (internal/tilecorr picks its
// routines by GOARCH), so the test runs on amd64 only.
func TestEveryFunctionIsLinked(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the allowlist is written for amd64's symbol set")
	}
	built, bins := auditedBinaries(t)
	for i, bin := range built {
		if bins[i].reflective {
			t.Errorf("%s links a call of a method by name, so its symbol table holds methods nothing calls; the edge:\n%s",
				filepath.Base(bin.path), strings.Join(reflectEdges(t, bin), "\n"))
		}
	}
	decls := declaredFuncs(t, "internal")
	allow := readAllowlist(t, allowlistPath)
	unlisted, stale := auditLinks(decls, linkedFuncs(bins), allow)
	for _, fn := range unlisted {
		t.Errorf("%s: %s is linked by no binary: delete it, or add it to %s with its reason", decls[fn], fn, allowlistPath)
	}
	for _, e := range stale {
		t.Errorf("%s: entry %s is stale: it is linked now, or it no longer exists", allowlistPath, e)
	}
}

// TestDaemonLinksNoCanvas: forestviewd writes every tile, dendrogram
// strips included, from runs, so it links no framebuffer and none of the
// canvas renderers.
func TestDaemonLinksNoCanvas(t *testing.T) {
	built, bins := auditedBinaries(t)
	for i, bin := range built {
		if filepath.Base(bin.path) != "forestviewd" {
			continue
		}
		for _, fn := range []string{"NewCanvas", "(*Canvas).Fill", "(*Canvas).FillRect", "RenderHeatmap", "RenderDendrogram"} {
			if bins[i].funcs["forestview/internal/render."+fn] {
				t.Errorf("forestviewd links render.%s", fn)
			}
		}
		return
	}
	t.Fatal("forestviewd is not among the audited binaries")
}

var (
	auditOnce  sync.Once
	auditBuilt []binary
	auditSyms  []binarySyms
	auditErr   error
)

// auditedBinaries builds every binary the audit counts and reads their
// symbol tables, once for all the tests of a run.
func auditedBinaries(t *testing.T) ([]binary, []binarySyms) {
	t.Helper()
	auditOnce.Do(func() {
		dir, err := os.MkdirTemp("", "linkaudit")
		if err != nil {
			auditErr = err
			return
		}
		defer os.RemoveAll(dir)
		if auditBuilt, auditErr = buildAllBinaries(dir); auditErr != nil {
			return
		}
		for _, bin := range auditBuilt {
			out, err := exec.Command("go", "tool", "nm", bin.path).Output()
			if err != nil {
				auditErr = fmt.Errorf("go tool nm %s: %v", bin.path, err)
				return
			}
			auditSyms = append(auditSyms, readNM(string(out)))
		}
	})
	if auditErr != nil {
		t.Fatal(auditErr)
	}
	return auditBuilt, auditSyms
}

// binarySyms is what the audit reads of one binary's symbol table: this
// module's functions, and whether it links reflect.Value.Method or
// MethodByName, a way to call a method by name that makes the table
// overstate what the binary calls.
type binarySyms struct {
	funcs      map[string]bool
	reflective bool
}

// readNM reads go tool nm's output for one binary.
func readNM(out string) binarySyms {
	b := binarySyms{funcs: map[string]bool{}}
	for _, line := range strings.Split(out, "\n") {
		if m := nmLine.FindStringSubmatch(line); m != nil && m[1] == "T" && isMethodByName(m[2]) {
			b.reflective = true
		}
		if fn, ok := nmFunc(line); ok {
			b.funcs[fn] = true
		}
	}
	return b
}

// isMethodByName reports whether a symbol is one of reflect's two ways to
// call a method chosen at run time.
func isMethodByName(sym string) bool {
	return sym == "reflect.Value.Method" || sym == "reflect.Value.MethodByName"
}

// linkedFuncs returns the functions the binaries link: the union of their
// symbol tables.
func linkedFuncs(bins []binarySyms) map[string]bool {
	linked := map[string]bool{}
	for _, b := range bins {
		for fn := range b.funcs {
			linked[fn] = true
		}
	}
	return linked
}

// reflectEdges links bin again with -dumpdep and returns the edges into
// reflect.Value.Method or MethodByName from outside them: the code that
// makes the binary reflective.
func reflectEdges(t *testing.T, bin binary) []string {
	t.Helper()
	cmd := exec.Command("go", "build", "-o", os.DevNull, "-ldflags=-dumpdep", bin.pkg)
	cmd.Dir = bin.dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -ldflags=-dumpdep %s: %v", bin.pkg, err)
	}
	var edges []string
	for _, line := range strings.Split(string(out), "\n") {
		from, to, ok := strings.Cut(line, " -> ")
		if ok && isMethodByName(to) && !isMethodByName(strings.Fields(from)[0]) {
			edges = append(edges, line)
		}
	}
	return edges
}

// binary is one program the audit builds: the package go build builds in
// dir, and where the build put it.
type binary struct{ dir, pkg, path string }

// buildAllBinaries builds every binary the audit counts into dir.
func buildAllBinaries(dir string) ([]binary, error) {
	const noInline = "-gcflags=forestview/...=-l"
	run := func(wd string, args ...string) (string, error) {
		cmd := exec.Command("go", args...)
		cmd.Dir = wd
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return string(out), nil
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
			return nil, err
		}
	}
	list, err := run(".", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./cmd/...", "./examples/...")
	if err != nil {
		return nil, err
	}
	mains := strings.Fields(list)
	if _, err := run(".", append([]string{"build", "-o", dir + string(filepath.Separator), noInline}, mains...)...); err != nil {
		return nil, err
	}
	if _, err := run("bench", "build", "-o", filepath.Join(dir, "bench"), noInline, "."); err != nil {
		return nil, err
	}
	bins := []binary{{"bench", ".", filepath.Join(dir, "bench")}}
	for _, pkg := range mains {
		bins = append(bins, binary{".", pkg, filepath.Join(dir, filepath.Base(pkg))})
	}
	return bins, nil
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
	// A binary that can call a method by name is told apart by its
	// symbol table; the rest of reflect does not count.
	for _, c := range []struct {
		line       string
		reflective bool
	}{
		{"  4a1000 T reflect.Value.MethodByName", true},
		{"  4a0f00 T reflect.Value.Method", true},
		{"  4a1100 T reflect.Value.NumMethod", false},
		{"  4a1200 T reflect.Value.Interface", false},
		{"  4a1300 T reflect.(*rtype).MethodByName", false},
		{"  4a1400 t reflect.methodName", false},
	} {
		if got := readNM(c.line).reflective; got != c.reflective {
			t.Errorf("readNM(%q).reflective = %v, want %v", c.line, got, c.reflective)
		}
	}
}
