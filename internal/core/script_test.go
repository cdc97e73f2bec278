package core

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRunScriptFullSession(t *testing.T) {
	_, fv := buildFixture(t)
	dir := t.TempDir()
	png := filepath.Join(dir, "out.png")
	list := filepath.Join(dir, "sel.txt")
	merged := filepath.Join(dir, "merged.pcl")
	session := filepath.Join(dir, "s.json")
	script := strings.NewReader(`
# a complete scripted session
select-region 0 5 14
sync off
scroll 1 3
sync on
render ` + png + ` 640 360
export-list ` + list + `
export-merged ` + merged + `
save-session ` + session + `
clear
load-session ` + session + `
echo done
`)
	res, err := fv.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 11 {
		t.Fatalf("commands = %d, want 11", res.Commands)
	}
	// Session restored the selection after clear.
	if fv.Selection().Len() != 10 {
		t.Fatalf("selection after load-session = %d", fv.Selection().Len())
	}
	for _, p := range []string{png, list, merged, session} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("script output %s missing: %v", p, err)
		}
	}
	if res.Log[len(res.Log)-1] != "done" {
		t.Fatalf("echo log = %q", res.Log[len(res.Log)-1])
	}
}

func TestRunScriptQuery(t *testing.T) {
	_, fv := buildFixture(t)
	res, err := fv.RunScript(strings.NewReader(`select-query "stress response induced"`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 1 || fv.Selection().Len() == 0 {
		t.Fatalf("query script: %+v, selection %d", res, fv.Selection().Len())
	}
}

func TestRunScriptSelectListFile(t *testing.T) {
	_, fv := buildFixture(t)
	path := filepath.Join(t.TempDir(), "genes.txt")
	ids := fv.merged.geneIDs[0] + "\n# comment\n" + fv.merged.geneIDs[1] + "\n"
	if err := os.WriteFile(path, []byte(ids), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fv.RunScript(strings.NewReader("select-list " + path)); err != nil {
		t.Fatal(err)
	}
	if fv.Selection().Len() != 2 {
		t.Fatalf("list selection = %d", fv.Selection().Len())
	}
}

func TestRunScriptErrors(t *testing.T) {
	_, fv := buildFixture(t)
	cases := []string{
		"frobnicate",                 // unknown command
		"select-region 0 5",          // wrong arity
		"select-region 0 x y",        // bad number
		"sync maybe",                 // bad flag
		"select-region 99 0 5",       // bad pane
		"select-query zzz-nothing",   // no matches
		"select-list /no/such/file",  // missing file
		"load-session /no/such/file", // missing file
	}
	for _, c := range cases {
		if _, err := fv.RunScript(strings.NewReader(c)); err == nil {
			t.Errorf("script %q should fail", c)
		}
	}
}

func TestRunScriptStopsAtFirstError(t *testing.T) {
	_, fv := buildFixture(t)
	script := strings.NewReader("select-region 0 0 4\nbogus\nselect-region 0 0 9\n")
	res, err := fv.RunScript(script)
	if err == nil {
		t.Fatal("script should fail at line 2")
	}
	if res.Commands != 1 {
		t.Fatalf("commands before failure = %d", res.Commands)
	}
	// The third command never ran.
	if fv.Selection().Len() != 5 {
		t.Fatalf("selection = %d, want 5 from the first command", fv.Selection().Len())
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name the line: %v", err)
	}
}

func TestSplitScriptLine(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`a b c`, []string{"a", "b", "c"}},
		{`select-query "heat shock"`, []string{"select-query", "heat shock"}},
		{`x "a b" y`, []string{"x", "a b", "y"}},
		{`""`, []string{""}},
		{``, nil},
		{`  spaced   out  `, []string{"spaced", "out"}},
	}
	for _, c := range cases {
		got := splitScriptLine(c.in)
		if len(got) != len(c.want) {
			t.Errorf("split(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("split(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestRunScriptNodeAndHistory(t *testing.T) {
	_, fv := buildFixture(t)
	root := fv.Pane(0).DS.GeneTree.Root()
	script := strings.NewReader(
		"select-region 0 0 4\n" +
			"select-node 0 " + itoa(root) + "\n" +
			"undo\n" +
			"redo\n")
	res, err := fv.RunScript(script)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 4 {
		t.Fatalf("commands = %d", res.Commands)
	}
	if fv.Selection().Len() != fv.Pane(0).DS.Data.NumGenes() {
		t.Fatalf("after redo selection = %d", fv.Selection().Len())
	}
	// Undo with empty history errors.
	fresh, _ := New([]*ClusteredDataset{fv.Pane(0).DS})
	if _, err := fresh.RunScript(strings.NewReader("undo")); err == nil {
		t.Fatal("undo on fresh session should error")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestRunScriptComments(t *testing.T) {
	_, fv := buildFixture(t)
	res, err := fv.RunScript(strings.NewReader("# only comments\n\n   \n# more\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 0 {
		t.Fatalf("comments executed: %d", res.Commands)
	}
}

// TestRunScriptRenderBounds: a scripted render's canvas sides must lie in
// [1, maxRenderSide]; anything else is a line-numbered error, never a panic
// in image.NewRGBA or a 40 GB canvas.
func TestRunScriptRenderBounds(t *testing.T) {
	_, fv := buildFixture(t)
	png := filepath.Join(t.TempDir(), "out.png")
	if _, err := fv.RunScript(strings.NewReader("render " + png + " 8192 1")); err != nil {
		t.Fatalf("a side of exactly %d: %v", maxRenderSide, err)
	}
	for _, dims := range []string{"8193 1", "1 8193", "0 5", "5 -1", "100000 100000", "1099511627776 1099511627776"} {
		_, err := fv.RunScript(strings.NewReader("echo x\nrender " + png + " " + dims))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("render %s: err = %v, want a line 2 error", dims, err)
		}
	}
}

// scriptPathCommands take a file path as their first argument.
var scriptPathCommands = map[string]bool{
	"render": true, "select-list": true, "export-list": true, "export-merged": true,
	"save-session": true, "load-session": true,
}

// containScript rewrites script so running it touches no file but path, and
// draws no canvas side above 64 pixels: the first argument of every path
// command becomes path, and each render side in [1, maxRenderSide] is
// clamped to 64 (sides outside it pass through, to be refused). It returns
// the rewritten script and its count of lines that may run a command.
func containScript(script, path string) (string, int) {
	lines := strings.Split(script, "\n")
	cmds := 0
	for i, line := range lines {
		args := splitScriptLine(strings.TrimSpace(line))
		if len(args) == 0 {
			continue
		}
		cmds++
		cmd := strings.ToLower(args[0])
		if !scriptPathCommands[cmd] || len(args) < 2 {
			continue
		}
		args[1] = path
		if cmd == "render" {
			for j := 2; j < len(args); j++ {
				if v, err := strconv.Atoi(args[j]); err == nil && v > 64 && v <= maxRenderSide {
					args[j] = "64"
				}
			}
		}
		lines[i] = `"` + strings.Join(args, `" "`) + `"`
	}
	return strings.Join(lines, "\n"), cmds
}

// scriptCommandBudget is what one command may allocate on buildFixture's
// session. The largest is select-list, whose reader starts with a 1 MiB line
// buffer; a first PNG encode is ≈0.9 MB.
const scriptCommandBudget = 2 << 20

// FuzzRunScript holds the script language to FuzzPartialFrame's contract:
// any input runs or fails with an error, never panics, and allocates at
// most 16 bytes an input byte plus scriptCommandBudget a command and one
// for the run itself — no
// argument, numeric or not, may make a command allocate past a fixed bound.
// containScript keeps the fuzzer off every file but one under t.TempDir().
func FuzzRunScript(f *testing.F) {
	_, base := buildFixture(f)
	panes := make([]*ClusteredDataset, base.NumPanes())
	for i := range panes {
		panes[i] = base.Pane(i).DS
	}
	for _, seed := range []string{
		"select-region 0 5 14\nsync off\nscroll 1 3\nsync on\nrender f 640 360\nexport-list f\nexport-merged f\nsave-session f\nclear\nload-session f\necho done",
		`select-query "stress response induced"`,
		"select-region 0 0 4\nselect-node 0 3\nundo\nredo\norder-spell G1,G2 5\norder-reset",
		"export-list f\nselect-list f",
		"# only comments\n\n   \n# more\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		fv, err := New(panes)
		if err != nil {
			t.Fatal(err)
		}
		src, cmds := containScript(script, filepath.Join(t.TempDir(), "f"))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, _ = fv.RunScript(strings.NewReader(src))
		runtime.ReadMemStats(&ms1)
		if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(16*len(src)+scriptCommandBudget*(cmds+1)); got > limit {
			t.Fatalf("a %d-byte script of %d commands allocated %d bytes (limit %d)", len(src), cmds, got, limit)
		}
	})
}
