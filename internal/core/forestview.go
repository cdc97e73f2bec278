package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"forestview/internal/annot"
	"forestview/internal/microarray"
	"forestview/internal/render"
)

// Prefs are per-pane display preferences ("ForestView also allows users to
// change user preferences on a per-dataset basis", Section 2).
type Prefs struct {
	ColorMap      render.ColorMap
	ContrastLimit float64
	ShowGeneTree  bool
	ShowLabels    bool
	// GlobalViewFrac is the fraction of pane width given to the global
	// (whole-genome) strip.
	GlobalViewFrac float64
}

// DefaultPrefs mirror TreeView's defaults.
func DefaultPrefs() Prefs {
	return Prefs{
		ColorMap:       render.GreenBlackRed,
		ContrastLimit:  2,
		ShowGeneTree:   true,
		ShowLabels:     true,
		GlobalViewFrac: 0.22,
	}
}

// Pane is one vertical dataset pane of the ForestView display.
type Pane struct {
	DS    *ClusteredDataset
	Prefs Prefs
	// scroll is the pane-local zoom scroll position (unsynchronized mode).
	scroll int
}

// Selection is the current gene subset, with its provenance.
type Selection struct {
	// IDs in selection order (the canonical synchronized display order).
	IDs []string
	set map[string]bool
	// Source describes how the selection was made (pane region, query,
	// analysis), for the UI caption and the export header.
	Source string
}

// Len returns the selection size.
func (s *Selection) Len() int {
	if s == nil {
		return 0
	}
	return len(s.IDs)
}

// ForestView is the application model. All mutating methods are safe for
// concurrent use with rendering: the display wall's render nodes read the
// scene while the UI thread mutates it, exactly the situation on the real
// wall.
type ForestView struct {
	mu        sync.RWMutex
	panes     []*Pane
	order     []int // display order of panes
	store     *annot.Store
	merged    *Merged
	selection *Selection
	// syncViews selects synchronized zoom views (same genes, same order,
	// same scroll in every pane).
	syncViews  bool
	syncScroll int
	// history/future implement selection undo/redo, bounded in depth.
	history []*Selection
	future  []*Selection
}

// maxHistory bounds the selection undo stack.
const maxHistory = 100

// pushHistoryLocked records the current selection before it is replaced.
// Caller holds fv.mu.
func (fv *ForestView) pushHistoryLocked() {
	fv.history = append(fv.history, fv.selection)
	if len(fv.history) > maxHistory {
		fv.history = fv.history[len(fv.history)-maxHistory:]
	}
	fv.future = nil
}

// UndoSelection restores the previous selection. It reports whether there
// was anything to undo.
func (fv *ForestView) UndoSelection() bool {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	if len(fv.history) == 0 {
		return false
	}
	fv.future = append(fv.future, fv.selection)
	fv.selection = fv.history[len(fv.history)-1]
	fv.history = fv.history[:len(fv.history)-1]
	fv.syncScroll = 0
	return true
}

// RedoSelection reverses an undo. It reports whether there was anything to
// redo.
func (fv *ForestView) RedoSelection() bool {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	if len(fv.future) == 0 {
		return false
	}
	fv.history = append(fv.history, fv.selection)
	fv.selection = fv.future[len(fv.future)-1]
	fv.future = fv.future[:len(fv.future)-1]
	fv.syncScroll = 0
	return true
}

// New builds a ForestView over clustered datasets. The annotation store
// merges every dataset's gene metadata; the merged interface spans them
// all.
func New(datasets []*ClusteredDataset) (*ForestView, error) {
	if len(datasets) == 0 {
		return nil, fmt.Errorf("core: no datasets")
	}
	fv := &ForestView{
		store:     annot.NewStore(),
		syncViews: true,
	}
	var raw []*microarray.Dataset
	for i, cd := range datasets {
		if cd == nil || cd.Data == nil {
			return nil, fmt.Errorf("core: dataset %d is nil", i)
		}
		fv.panes = append(fv.panes, &Pane{DS: cd, Prefs: DefaultPrefs()})
		fv.order = append(fv.order, i)
		raw = append(raw, cd.Data)
		for _, g := range cd.Data.Genes {
			if _, ok := fv.store.Get(g.ID); !ok {
				fv.store.Add(annot.Record{ID: g.ID, Name: g.Name, Description: g.Annotation})
			}
		}
	}
	m, err := NewMerged(raw)
	if err != nil {
		return nil, err
	}
	fv.merged = m
	return fv, nil
}

// NumPanes returns the pane count.
func (fv *ForestView) NumPanes() int { return len(fv.panes) }

// Pane returns pane i in *storage* order.
func (fv *ForestView) Pane(i int) *Pane {
	if i < 0 || i >= len(fv.panes) {
		return nil
	}
	return fv.panes[i]
}

// PaneOrder returns the current display order (indices into storage order).
func (fv *ForestView) PaneOrder() []int {
	fv.mu.RLock()
	defer fv.mu.RUnlock()
	return append([]int(nil), fv.order...)
}

// Merged exposes the merged dataset interface.
func (fv *ForestView) Merged() *Merged { return fv.merged }

// Selection returns the current selection (nil-safe snapshot).
func (fv *ForestView) Selection() *Selection {
	fv.mu.RLock()
	defer fv.mu.RUnlock()
	return fv.selection
}

// SetSynchronized toggles synchronized viewing ("If desired it is possible
// to turn off synchronous viewing in order to see the selected subsets in
// the underlying gene order of each dataset").
func (fv *ForestView) SetSynchronized(on bool) {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.syncViews = on
}

func newSelection(ids []string, source string) *Selection {
	s := &Selection{Source: source, set: make(map[string]bool, len(ids))}
	for _, id := range ids {
		if !s.set[id] {
			s.set[id] = true
			s.IDs = append(s.IDs, id)
		}
	}
	return s
}

// SelectRegion selects the genes between two display positions (inclusive)
// of one pane's global view — the paper's "using the mouse to highlight a
// region within the global view of one dataset". The selection order is the
// pane's display order, which then drives synchronized views everywhere.
func (fv *ForestView) SelectRegion(pane, fromPos, toPos int) error {
	if pane < 0 || pane >= len(fv.panes) {
		return fmt.Errorf("core: pane %d out of range", pane)
	}
	cd := fv.panes[pane].DS
	n := len(cd.DisplayOrder)
	if fromPos > toPos {
		fromPos, toPos = toPos, fromPos
	}
	if fromPos < 0 {
		fromPos = 0
	}
	if toPos >= n {
		toPos = n - 1
	}
	if fromPos > toPos {
		return fmt.Errorf("core: empty region")
	}
	ids := make([]string, 0, toPos-fromPos+1)
	for pos := fromPos; pos <= toPos; pos++ {
		ids = append(ids, cd.Data.Genes[cd.DisplayOrder[pos]].ID)
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.pushHistoryLocked()
	fv.selection = newSelection(ids, fmt.Sprintf("region %d-%d of %q", fromPos, toPos, cd.Data.Name))
	fv.syncScroll = 0
	return nil
}

// SelectTreeNode selects every gene under one node of a pane's gene
// dendrogram — the "selecting ... tree nodes" interaction of Section 2.
// node addresses the tree: leaves are 0..NLeaves-1, merge i is NLeaves+i.
func (fv *ForestView) SelectTreeNode(pane, node int) error {
	if pane < 0 || pane >= len(fv.panes) {
		return fmt.Errorf("core: pane %d out of range", pane)
	}
	cd := fv.panes[pane].DS
	if cd.GeneTree == nil {
		return fmt.Errorf("core: pane %d has no gene tree", pane)
	}
	// In the tree's leaf order, which is the pane's display order: the
	// subtree reads like a region selection.
	leaves := cd.GeneTree.LeavesUnder(node)
	if len(leaves) == 0 {
		return fmt.Errorf("core: node %d not in tree", node)
	}
	ids := make([]string, len(leaves))
	for i, row := range leaves {
		ids[i] = cd.Data.Genes[row].ID
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.pushHistoryLocked()
	fv.selection = newSelection(ids, fmt.Sprintf("tree node %d of %q", node, cd.Data.Name))
	fv.syncScroll = 0
	return nil
}

// SelectQuery selects genes matching an annotation-search expression across
// all datasets.
func (fv *ForestView) SelectQuery(expr string) (int, error) {
	ids := fv.store.Search(expr)
	if len(ids) == 0 {
		return 0, fmt.Errorf("core: query %q matched no genes", expr)
	}
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.pushHistoryLocked()
	fv.selection = newSelection(ids, "query "+expr)
	fv.syncScroll = 0
	return len(ids), nil
}

// SelectList installs a selection from an external analysis (SPELL, GOLEM,
// a pasted list). Unknown IDs are kept: they render as absent rows, making
// missingness visible rather than silent.
func (fv *ForestView) SelectList(ids []string, source string) {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.pushHistoryLocked()
	fv.selection = newSelection(ids, source)
	fv.syncScroll = 0
}

// ClearSelection removes the selection.
func (fv *ForestView) ClearSelection() {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	fv.pushHistoryLocked()
	fv.selection = nil
	fv.syncScroll = 0
}

// OrderPanesBy reorders panes by descending weight (missing names keep
// their relative order at the end) — the hook SPELL's ranked dataset list
// plugs into ("The datasets returned can be displayed in decreasing order
// of relevance to the query").
func (fv *ForestView) OrderPanesBy(weight map[string]float64) {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	idx := append([]int(nil), fv.order...)
	sort.SliceStable(idx, func(a, b int) bool {
		wa, oka := weight[fv.panes[idx[a]].DS.Data.Name]
		wb, okb := weight[fv.panes[idx[b]].DS.Data.Name]
		switch {
		case oka && okb:
			return wa > wb
		case oka:
			return true
		default:
			return false
		}
	})
	fv.order = idx
}

// ResetPaneOrder restores storage order.
func (fv *ForestView) ResetPaneOrder() {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	for i := range fv.order {
		fv.order[i] = i
	}
}

// Scroll adjusts the zoom scroll position. In synchronized mode one scroll
// position is shared by every pane ("the zoom view for each dataset shows
// the gene expression data in exactly the same order and same scroll
// position"); otherwise the pane scrolls alone.
func (fv *ForestView) Scroll(pane, delta int) {
	fv.mu.Lock()
	defer fv.mu.Unlock()
	clamp := func(v, n int) int {
		if v < 0 {
			return 0
		}
		if n > 0 && v >= n {
			return n - 1
		}
		return v
	}
	if fv.syncViews {
		n := 0
		if fv.selection != nil {
			n = len(fv.selection.IDs)
		}
		fv.syncScroll = clamp(fv.syncScroll+delta, n)
		return
	}
	if pane >= 0 && pane < len(fv.panes) {
		p := fv.panes[pane]
		p.scroll = clamp(p.scroll+delta, len(p.DS.DisplayOrder))
	}
}

// ZoomRow is one row of a pane's zoom view: a gene ID and the dataset-local
// row holding its data (-1 when the dataset does not measure the gene; the
// row renders as missing, keeping cross-pane rows aligned).
type ZoomRow struct {
	GeneID string
	Row    int
}

// ZoomContent returns the zoom-view rows for a pane under the current
// selection and synchronization mode.
//
// Synchronized: every pane shows the selection in selection order, absent
// genes included as placeholders, so scanning horizontally across panes
// follows a single gene (the core Section-2 interaction).
//
// Unsynchronized: the pane shows only the selected genes it measures, in
// its own clustered display order, exposing how the grouping differs per
// dataset.
func (fv *ForestView) ZoomContent(pane int) []ZoomRow {
	fv.mu.RLock()
	defer fv.mu.RUnlock()
	if pane < 0 || pane >= len(fv.panes) || fv.selection == nil {
		return nil
	}
	cd := fv.panes[pane].DS
	if fv.syncViews {
		out := make([]ZoomRow, len(fv.selection.IDs))
		for i, id := range fv.selection.IDs {
			row := -1
			if r, ok := cd.Data.GeneIndex(id); ok {
				row = r
			}
			out[i] = ZoomRow{GeneID: id, Row: row}
		}
		return out
	}
	var out []ZoomRow
	for _, row := range cd.DisplayOrder {
		id := cd.Data.Genes[row].ID
		if fv.selection.set[id] {
			out = append(out, ZoomRow{GeneID: id, Row: row})
		}
	}
	return out
}

// ExportGeneList writes the selected gene IDs (one per line, with a
// provenance header) — Figure 1's "Export Gene List".
func (fv *ForestView) ExportGeneList(w io.Writer) error {
	fv.mu.RLock()
	sel := fv.selection
	fv.mu.RUnlock()
	if sel == nil || len(sel.IDs) == 0 {
		return fmt.Errorf("core: nothing selected")
	}
	header := fmt.Sprintf("ForestView gene list (%d genes, %s)", len(sel.IDs), sel.Source)
	return microarray.WriteGeneList(w, sel.IDs, header)
}

// ExportMerged writes the merged expression matrix of the selection (or of
// every unified gene when nothing is selected) in PCL format — Figure 1's
// "Export Merged Dataset".
func (fv *ForestView) ExportMerged(w io.Writer) error {
	fv.mu.RLock()
	var genes []string
	if fv.selection != nil {
		genes = append([]string(nil), fv.selection.IDs...)
	}
	fv.mu.RUnlock()
	ds, err := fv.merged.ExportPCL(genes)
	if err != nil {
		return err
	}
	return microarray.WritePCL(w, ds)
}
