package golem

import (
	"context"
	"fmt"

	"forestview/internal/stats"
)

// An analysis is a counting pass and a pure merge, the same shape as
// spell.PartialSearchSubsetCtx/Merge. The background is partitioned by
// contiguous gene positions cut at multiples of 64: slice gi of G covers
// positions [64·(gi·W/G), 64·((gi+1)·W/G)) of the W = ⌈N/64⌉ words a
// bitset of the universe would take, so the per-slice 2×2 tallies are plain
// integers that sum — over a full partition — to exactly the global k, K, n,
// N the hypergeometric is fed. Analyze is slice 0 of 1, merged: the answer
// of a fleet is the answer of one process bit-for-bit, because both are
// MergeCounts over the same sums.

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

// PartialAnalyzeCtx computes one slice's PartialCounts: Selected from the
// selection's genes in the slice, Background from all of the slice's genes,
// each gene adding one to every term it is annotated to. A context that is
// done before the count is its error. It does not error on an empty
// slice-local selection: a slice legitimately holding none of the genes
// still contributes its background tallies to the global table, and
// ErrNoSelection is for the merge to say.
func (e *Enricher) PartialAnalyzeCtx(ctx context.Context, selection []string, slice, slices int) (*PartialCounts, error) {
	if slices < 1 || slice < 0 || slice >= slices {
		return nil, fmt.Errorf("golem: slice %d of %d out of range", slice, slices)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	N, T := len(e.geneIdx), len(e.terms)
	lo := min(64*(slice*e.words/slices), N)
	hi := min(64*((slice+1)*e.words/slices), N)
	counts := make([]int32, 2*T) // one allocation cut two ways
	p := &PartialCounts{
		Fingerprint:    e.fingerprint,
		Slice:          slice,
		Slices:         slices,
		BackgroundSize: hi - lo,
		InBackground:   make([]bool, len(selection)),
		Selected:       counts[:T:T],
		Background:     counts[T:],
	}
	// The InBackground disclosure is over the full universe, so it is the
	// same on every slice; a gene named twice counts once.
	seen := make([]uint64, (hi-lo+63)/64)
	for i, g := range selection {
		gi, ok := e.geneIdx[g]
		if !ok {
			continue
		}
		p.InBackground[i] = true
		at := int(gi) - lo
		if at < 0 || int(gi) >= hi || seen[at>>6]&(1<<(at&63)) != 0 {
			continue
		}
		seen[at>>6] |= 1 << (at & 63)
		p.SelectionSize++
		for _, t := range e.geneTerms[e.geneStart[gi]:e.geneStart[gi+1]] {
			p.Selected[t]++
		}
	}
	if lo == 0 && hi == N {
		for t := range e.terms {
			p.Background[t] = int32(e.terms[t].k)
		}
		return p, nil
	}
	for _, t := range e.geneTerms[e.geneStart[lo]:e.geneStart[hi]] {
		p.Background[t]++
	}
	return p, nil
}

// MergeCounts sums a set of slice partials into global 2×2 tables and scores
// them: the package's one hypergeometric pass, then the corrections. Over a
// complete partition (every slice of some G present exactly once) the sums
// are the exact global tallies whatever G is, so every split of one
// selection — Analyze's 1 included — gives one bit-identical table. Over a
// *subset* of slices — a degraded scatter — it is still a valid exact
// analysis, just over the reduced background the reachable slices cover.
// The term rows are TermID-sorted, so the tested family accumulates in the
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
