package core

import (
	"bufio"
	"fmt"
	"image/color"
	"io"
	"os"
	"strconv"
	"strings"

	"forestview/internal/microarray"
	"forestview/internal/render"
)

// The script interface drives a ForestView session from a command stream —
// the batch/automation face of the interactions Section 2 describes. One
// command per line, '#' comments, shell-ish quoting for arguments with
// spaces:
//
//	select-region 0 100 140
//	select-query "heat shock"
//	select-list genes.txt
//	clear
//	sync off
//	scroll 0 25
//	order-spell YAL001C,YBR072W 20
//	render view.png 1600 900
//	export-list selection.txt
//	export-merged merged.pcl
//	save-session session.json
//	load-session session.json
//	echo message...

// maxRenderSide bounds each side of a scripted render's canvas: an 8192²
// canvas is already 256 MiB, and the paper's desktop is 1600×1200.
const maxRenderSide = 8192

// ScriptResult records what a script run did, for logs and tests.
type ScriptResult struct {
	// Commands executed (after parsing).
	Commands int
	// Log carries one human-readable line per command.
	Log []string
}

// RunScript executes commands from r against the session. Execution stops
// at the first error, which is returned with its line number.
func (fv *ForestView) RunScript(r io.Reader) (*ScriptResult, error) {
	res := &ScriptResult{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		args := splitScriptLine(line)
		if len(args) == 0 {
			continue
		}
		msg, err := fv.runCommand(args)
		if err != nil {
			return res, fmt.Errorf("core: script line %d (%s): %w", lineNo, args[0], err)
		}
		res.Commands++
		res.Log = append(res.Log, msg)
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("core: reading script: %w", err)
	}
	return res, nil
}

// runCommand dispatches one parsed command.
func (fv *ForestView) runCommand(args []string) (string, error) {
	cmd := strings.ToLower(args[0])
	need := func(n int) error {
		if len(args)-1 != n {
			return fmt.Errorf("want %d arguments, got %d", n, len(args)-1)
		}
		return nil
	}
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", s)
		}
		return v, nil
	}
	switch cmd {
	case "select-region":
		if err := need(3); err != nil {
			return "", err
		}
		pane, err := atoi(args[1])
		if err != nil {
			return "", err
		}
		from, err := atoi(args[2])
		if err != nil {
			return "", err
		}
		to, err := atoi(args[3])
		if err != nil {
			return "", err
		}
		if err := fv.SelectRegion(pane, from, to); err != nil {
			return "", err
		}
		return fmt.Sprintf("selected %d genes (region)", fv.Selection().Len()), nil

	case "select-query":
		if err := need(1); err != nil {
			return "", err
		}
		n, err := fv.SelectQuery(args[1])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("selected %d genes (query)", n), nil

	case "select-list":
		if err := need(1); err != nil {
			return "", err
		}
		f, err := os.Open(args[1])
		if err != nil {
			return "", err
		}
		ids, err := microarray.ReadGeneList(f)
		f.Close()
		if err != nil {
			return "", err
		}
		fv.SelectList(ids, "list "+args[1])
		return fmt.Sprintf("selected %d genes (list)", fv.Selection().Len()), nil

	case "select-node":
		if err := need(2); err != nil {
			return "", err
		}
		pane, err := atoi(args[1])
		if err != nil {
			return "", err
		}
		node, err := atoi(args[2])
		if err != nil {
			return "", err
		}
		if err := fv.SelectTreeNode(pane, node); err != nil {
			return "", err
		}
		return fmt.Sprintf("selected %d genes (tree node)", fv.Selection().Len()), nil

	case "undo":
		if err := need(0); err != nil {
			return "", err
		}
		if !fv.UndoSelection() {
			return "", fmt.Errorf("nothing to undo")
		}
		return fmt.Sprintf("undo -> %d genes selected", fv.Selection().Len()), nil

	case "redo":
		if err := need(0); err != nil {
			return "", err
		}
		if !fv.RedoSelection() {
			return "", fmt.Errorf("nothing to redo")
		}
		return fmt.Sprintf("redo -> %d genes selected", fv.Selection().Len()), nil

	case "clear":
		if err := need(0); err != nil {
			return "", err
		}
		fv.ClearSelection()
		return "selection cleared", nil

	case "sync":
		if err := need(1); err != nil {
			return "", err
		}
		switch strings.ToLower(args[1]) {
		case "on":
			fv.SetSynchronized(true)
		case "off":
			fv.SetSynchronized(false)
		default:
			return "", fmt.Errorf("sync wants on|off, got %q", args[1])
		}
		return "sync " + strings.ToLower(args[1]), nil

	case "scroll":
		if err := need(2); err != nil {
			return "", err
		}
		pane, err := atoi(args[1])
		if err != nil {
			return "", err
		}
		delta, err := atoi(args[2])
		if err != nil {
			return "", err
		}
		fv.Scroll(pane, delta)
		return fmt.Sprintf("scrolled pane %d by %d", pane, delta), nil

	case "order-spell":
		if len(args) < 2 || len(args) > 3 {
			return "", fmt.Errorf("want query[,genes] [topN]")
		}
		var query []string
		for _, q := range strings.Split(args[1], ",") {
			if q = strings.TrimSpace(q); q != "" {
				query = append(query, q)
			}
		}
		topN := 20
		if len(args) == 3 {
			v, err := atoi(args[2])
			if err != nil {
				return "", err
			}
			topN = v
		}
		if _, err := fv.ApplySpellSearch(nil, query, topN); err != nil {
			return "", err
		}
		return fmt.Sprintf("SPELL ordering applied, %d genes selected", fv.Selection().Len()), nil

	case "order-reset":
		if err := need(0); err != nil {
			return "", err
		}
		fv.ResetPaneOrder()
		return "pane order reset", nil

	case "render":
		if err := need(3); err != nil {
			return "", err
		}
		w, err := atoi(args[2])
		if err != nil {
			return "", err
		}
		h, err := atoi(args[3])
		if err != nil {
			return "", err
		}
		if w < 1 || w > maxRenderSide || h < 1 || h > maxRenderSide {
			return "", fmt.Errorf("canvas %dx%d: each side must be in [1, %d]", w, h, maxRenderSide)
		}
		c := render.NewCanvas(w, h, color.RGBA{A: 255})
		fv.RenderScene(c, w, h)
		if err := c.SavePNG(args[1]); err != nil {
			return "", err
		}
		return fmt.Sprintf("rendered %dx%d -> %s", w, h, args[1]), nil

	case "export-list":
		if err := need(1); err != nil {
			return "", err
		}
		f, err := os.Create(args[1])
		if err != nil {
			return "", err
		}
		if err := fv.ExportGeneList(f); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		return "gene list -> " + args[1], nil

	case "export-merged":
		if err := need(1); err != nil {
			return "", err
		}
		f, err := os.Create(args[1])
		if err != nil {
			return "", err
		}
		if err := fv.ExportMerged(f); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		return "merged matrix -> " + args[1], nil

	case "save-session":
		if err := need(1); err != nil {
			return "", err
		}
		f, err := os.Create(args[1])
		if err != nil {
			return "", err
		}
		if err := fv.SaveSession(f); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		return "session -> " + args[1], nil

	case "load-session":
		if err := need(1); err != nil {
			return "", err
		}
		f, err := os.Open(args[1])
		if err != nil {
			return "", err
		}
		defer f.Close()
		if err := fv.RestoreSession(f); err != nil {
			return "", err
		}
		return "session <- " + args[1], nil

	case "echo":
		return strings.Join(args[1:], " "), nil

	default:
		return "", fmt.Errorf("unknown command %q", cmd)
	}
}

// splitScriptLine tokenizes honoring double quotes.
func splitScriptLine(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
			if !inQuote && cur.Len() == 0 {
				// Preserve explicitly-empty quoted argument.
				out = append(out, "")
			}
		case !inQuote && (r == ' ' || r == '\t'):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}
