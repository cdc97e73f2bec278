package golem

import (
	"context"
	"fmt"
	mbits "math/bits"
	"runtime"
	"sync"

	"forestview/internal/stats"
)

// An analysis is a counting pass and a pure merge, the same shape as
// spell.PartialSearch/Merge. The background bitset is partitioned by
// contiguous *word ranges*: slice gi of G covers arena words
// [gi*W/G, (gi+1)*W/G), so each shard popcounts ~1/G of every term row and
// the per-slice 2×2 tallies are plain integers that sum — over a full
// partition — to exactly the global k, K, n, N the hypergeometric is fed.
// Analyze is slice 0 of 1, merged: the answer of a fleet is the answer of
// one process bit-for-bit, because both are MergeCounts over the same sums.

// TermInfo names one testable term for merge-time result assembly.
type TermInfo struct {
	ID   string
	Name string
}

// TermCatalog is the merge side's static knowledge of the kernel layout: the
// TermID-sorted term list (positionally aligned with every PartialCounts
// built against the same fingerprint) and the full universe size. A
// coordinator fetches it once per fleet generation; it never changes for a
// given Enricher.
type TermCatalog struct {
	Fingerprint    uint64
	BackgroundSize int
	Terms          []TermInfo
}

// Catalog returns the enricher's term catalog: one value, built with the
// enricher and as immutable, that every caller shares.
func (e *Enricher) Catalog() *TermCatalog { return e.catalog }

// Fingerprint identifies the kernel layout (background gene order, term
// rows, per-term K). Partials and catalogs compose iff fingerprints match.
func (e *Enricher) Fingerprint() uint64 { return e.fingerprint }

// PartialCounts is one background slice's contribution to an analysis: the
// integer tallies of the 2×2 tables restricted to the slice's gene range,
// positionally aligned with the catalog's Terms.
type PartialCounts struct {
	Fingerprint uint64
	// Slice/Slices name the word-range partition cell this partial covers.
	Slice  int
	Slices int
	// BackgroundSize and SelectionSize are the slice-local N and n.
	BackgroundSize int
	SelectionSize  int
	// InBackground[i] reports whether selection[i] (the argument, same
	// order) is in the *full* universe — identical on every slice, letting
	// the merge side distinguish "selection unknown to the universe" from
	// "selection lives in an unreachable slice" on degraded scatters.
	InBackground []bool
	// Selected[t] and Background[t] are the slice-local k and K per term.
	Selected   []int32
	Background []int32
}

// PartialAnalyze computes the tallies of background slice `slice` of
// `slices` for the selection. See PartialAnalyzeCtx.
func (e *Enricher) PartialAnalyze(selection []string, slice, slices int) (*PartialCounts, error) {
	return e.PartialAnalyzeCtx(context.Background(), selection, slice, slices)
}

// PartialAnalyzeCtx computes one slice's PartialCounts, polling ctx between
// term chunks. It does not error on an empty slice-local selection: a slice
// legitimately holding none of the genes still contributes its background
// tallies to the global table, and ErrNoSelection is for the merge to say.
func (e *Enricher) PartialAnalyzeCtx(ctx context.Context, selection []string, slice, slices int) (*PartialCounts, error) {
	if slices < 1 || slice < 0 || slice >= slices {
		return nil, fmt.Errorf("golem: slice %d of %d out of range", slice, slices)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One full-universe selection bitset — duplicate and out-of-background
	// IDs vanish here. The slice restriction happens at the word range, not
	// at interning, so the InBackground disclosure stays slice-independent.
	sel := make([]uint64, e.words)
	inBG := make([]bool, len(selection))
	for i, g := range selection {
		if gi, ok := e.geneIdx[g]; ok {
			inBG[i] = true
			sel[gi>>6] |= 1 << uint(gi&63)
		}
	}

	N := len(e.geneIdx)
	wlo := slice * e.words / slices
	whi := (slice + 1) * e.words / slices
	p := &PartialCounts{
		Fingerprint:  e.fingerprint,
		Slice:        slice,
		Slices:       slices,
		InBackground: inBG,
		Selected:     make([]int32, len(e.terms)),
		Background:   make([]int32, len(e.terms)),
	}
	// Slice-local N: bit positions in [wlo*64, whi*64) clamped to the
	// universe (the last word's tail bits are never claimed).
	if hiBit := whi * 64; hiBit > N {
		p.BackgroundSize = N - wlo*64
	} else {
		p.BackgroundSize = (whi - wlo) * 64
	}
	if p.BackgroundSize < 0 {
		p.BackgroundSize = 0
	}
	for _, w := range sel[wlo:whi] {
		p.SelectionSize += mbits.OnesCount64(w)
	}

	// Per-term AND-popcounts over the word range, sharded across workers
	// for large ontologies. Each worker owns a disjoint term range — no
	// locks, deterministic output.
	par := runtime.GOMAXPROCS(0)
	sliceWords := whi - wlo
	if sliceWords == 0 {
		return p, nil // empty range: all-zero tallies are the exact answer
	}
	// Scale the serial cutoff by the slice fraction: a 1/G slice does 1/G
	// the popcount work per term, so it takes G× the terms to justify a
	// goroutine.
	minTerms := countShardTerms * e.words / sliceWords
	if max := len(e.terms) / minTerms; par > max {
		par = max
	}
	if par <= 1 {
		if err := e.partialCountRange(ctx, sel, p, wlo, whi, 0, len(e.terms)); err != nil {
			return nil, err
		}
		return p, nil
	}
	var wg sync.WaitGroup
	chunk := (len(e.terms) + par - 1) / par
	for w := 0; w < par; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(e.terms) {
			hi = len(e.terms)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			_ = e.partialCountRange(ctx, sel, p, wlo, whi, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// partialCountRange fills p.Selected/p.Background[lo:hi] with popcounts of
// term-row words [wlo, whi), polling ctx between terms.
func (e *Enricher) partialCountRange(ctx context.Context, sel []uint64, p *PartialCounts, wlo, whi, lo, hi int) error {
	words := e.words
	selRange := sel[wlo:whi]
	for i := lo; i < hi; i++ {
		if i&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		row := e.bits[i*words+wlo : i*words+whi]
		row = row[:len(selRange)] // one bounds check for the fused loop
		k, kb := 0, 0
		for w, s := range selRange {
			k += mbits.OnesCount64(row[w] & s)
			kb += mbits.OnesCount64(row[w])
		}
		p.Selected[i] = int32(k)
		p.Background[i] = int32(kb)
	}
	return nil
}

// MergeCounts sums a set of slice partials into global 2×2 tables and scores
// them: the package's one hypergeometric pass, then the corrections. Over a
// complete partition (every slice of some G present exactly once) the sums
// are the exact global tallies whatever G is, so every split of one
// selection — Analyze's 1 included — gives one bit-identical table. Over a
// *subset* of slices — a degraded scatter — it is still a valid exact
// analysis, just over the reduced background the reachable slices cover.
// The arena is TermID-sorted, so the tested family accumulates in the
// reference's deterministic order.
//
// Every partial must carry the catalog's fingerprint and agree on Slices;
// duplicate slices are refused. An empty merged selection returns
// ErrNoSelection — callers holding a degraded subset should consult the
// partials' InBackground before treating that as a user error.
func MergeCounts(cat *TermCatalog, parts []*PartialCounts, opt Options) ([]Enrichment, error) {
	if opt.MinSelected < 1 {
		opt.MinSelected = 1
	}
	if cat == nil {
		return nil, fmt.Errorf("golem: merge without a term catalog")
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("golem: nothing to merge")
	}
	T := len(cat.Terms)
	slices := parts[0].Slices
	seen := make(map[int]bool, len(parts))
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("golem: nil partial")
		}
		if p.Fingerprint != cat.Fingerprint {
			return nil, fmt.Errorf("golem: partial fingerprint %016x does not match catalog %016x",
				p.Fingerprint, cat.Fingerprint)
		}
		if p.Slices != slices || p.Slice < 0 || p.Slice >= p.Slices {
			return nil, fmt.Errorf("golem: inconsistent slice %d/%d (want %d slices)",
				p.Slice, p.Slices, slices)
		}
		if seen[p.Slice] {
			return nil, fmt.Errorf("golem: duplicate partial for slice %d", p.Slice)
		}
		seen[p.Slice] = true
		if len(p.Selected) != T || len(p.Background) != T {
			return nil, fmt.Errorf("golem: partial has %d/%d term counts, catalog has %d",
				len(p.Selected), len(p.Background), T)
		}
	}

	N, n := 0, 0
	for _, p := range parts {
		N += p.BackgroundSize
		n += p.SelectionSize
	}
	if n == 0 {
		return nil, ErrNoSelection
	}
	// The merging process may never have built an Enricher (a coordinator
	// holds only the catalog), so grow the shared log-factorial table here.
	stats.GrowLnFactorial(N)

	var results []Enrichment
	for t, term := range cat.Terms {
		k, K := 0, 0
		for _, p := range parts {
			k += int(p.Selected[t])
			K += int(p.Background[t])
		}
		if k < opt.MinSelected {
			continue
		}
		results = append(results, Enrichment{
			TermID:         term.ID,
			TermName:       term.Name,
			Selected:       k,
			Background:     K,
			SelectionSize:  n,
			BackgroundSize: N,
			PValue:         stats.HypergeomUpperTail(k, N, K, n),
			Fold:           stats.FoldEnrichment(k, N, K, n),
		})
	}
	return finishAnalysis(results, opt), nil
}

// SelectionKnown reports whether any of the partials saw a selection gene in
// the full universe. When a degraded merge returns ErrNoSelection but the
// selection is known, the verdict is "unresolvable right now" (the genes
// live in unreachable slices), not "bad selection".
func SelectionKnown(parts []*PartialCounts) bool {
	for _, p := range parts {
		for _, ok := range p.InBackground {
			if ok {
				return true
			}
		}
	}
	return false
}
