package golem

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestMergeCountsMatchesAnalyze is the distributed golden-parity proof: for
// every slice count a fleet might use, partial tallies summed by MergeCounts
// must reproduce single-process Analyze exactly — same terms in the same
// order, same 2×2 tables, p-values within 1e-12 (in practice bit-identical:
// the summed integers feed the very same hypergeometric calls). One slice is
// what Analyze itself merges, so that case is held to the oracle instead:
// the chain is the oracle ← single ← K-way split.
func TestMergeCountsMatchesAnalyze(t *testing.T) {
	for _, seed := range []int64{11, 211} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			enr, sel := randomEnrichmentFixture(t, rng, 300, 700)
			cat := enr.Catalog()
			for _, opt := range []Options{
				{},
				{MinSelected: 2},
				{MaxPValue: 0.05},
				{MinSelected: 3, MaxPValue: 0.2},
			} {
				analyzed, err := enr.Analyze(sel, opt)
				if err != nil {
					t.Fatalf("Analyze %+v: %v", opt, err)
				}
				ref, err := enr.ReferenceAnalyze(sel, opt)
				if err != nil {
					t.Fatalf("ReferenceAnalyze %+v: %v", opt, err)
				}
				for _, slices := range []int{1, 2, 3, 5} {
					want := analyzed
					if slices == 1 {
						want = ref
					}
					parts := make([]*PartialCounts, slices)
					for s := 0; s < slices; s++ {
						if parts[s], err = enr.PartialAnalyze(sel, s, slices); err != nil {
							t.Fatalf("slice %d/%d: %v", s, slices, err)
						}
					}
					// Merge order must not matter: reverse the partition.
					for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
						parts[i], parts[j] = parts[j], parts[i]
					}
					got, err := MergeCounts(cat, parts, opt)
					if err != nil {
						t.Fatalf("merge %d slices %+v: %v", slices, opt, err)
					}
					assertEnrichmentsEqual(t, got, want, 1e-12)
				}
			}
		})
	}
}

// TestPartialAnalyzeTallies pins the slice-local invariants: background
// sizes partition N exactly, selection sizes partition n, per-term counts
// sum to the full-scan counts, and the InBackground disclosure is identical
// on every slice.
func TestPartialAnalyzeTallies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	enr, sel := randomEnrichmentFixture(t, rng, 200, 500)
	full, err := enr.PartialAnalyze(sel, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full.BackgroundSize != enr.BackgroundSize() {
		t.Fatalf("whole-universe slice N = %d, want %d", full.BackgroundSize, enr.BackgroundSize())
	}
	for _, slices := range []int{2, 3, 5, 64} {
		var N, n int
		ks := make([]int, enr.NumTerms())
		Ks := make([]int, enr.NumTerms())
		for s := 0; s < slices; s++ {
			p, err := enr.PartialAnalyze(sel, s, slices)
			if err != nil {
				t.Fatal(err)
			}
			N += p.BackgroundSize
			n += p.SelectionSize
			for i := range ks {
				ks[i] += int(p.Selected[i])
				Ks[i] += int(p.Background[i])
			}
			if len(p.InBackground) != len(sel) {
				t.Fatalf("slice %d/%d: InBackground length %d, want %d",
					s, slices, len(p.InBackground), len(sel))
			}
			for i := range p.InBackground {
				if p.InBackground[i] != full.InBackground[i] {
					t.Fatalf("slice %d/%d: InBackground[%d] differs from whole-universe run",
						s, slices, i)
				}
			}
		}
		if N != full.BackgroundSize || n != full.SelectionSize {
			t.Fatalf("%d slices: summed N,n = %d,%d want %d,%d",
				slices, N, n, full.BackgroundSize, full.SelectionSize)
		}
		for i := range ks {
			if ks[i] != int(full.Selected[i]) || Ks[i] != int(full.Background[i]) {
				t.Fatalf("%d slices: term %d counts %d/%d, want %d/%d",
					slices, i, ks[i], Ks[i], full.Selected[i], full.Background[i])
			}
		}
	}
}

// TestMergeCountsAcrossEnrichers: two enrichers built from the same inputs
// fingerprint identically, so their partials interleave — the distributed
// reality, where every shard built its own Enricher.
func TestMergeCountsAcrossEnrichers(t *testing.T) {
	build := func(seed int64) (*refEnricher, []string) {
		rng := rand.New(rand.NewSource(seed))
		return randomEnrichmentFixture(t, rng, 120, 300)
	}
	a, sel := build(77)
	b, _ := build(77)
	if a.fingerprint != b.fingerprint {
		t.Fatalf("same-input enrichers fingerprint %016x vs %016x", a.fingerprint, b.fingerprint)
	}
	want, err := a.Analyze(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var parts []*PartialCounts
	for s, e := range []*Enricher{a.Enricher, b.Enricher, a.Enricher} {
		p, err := e.PartialAnalyze(sel, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got, err := MergeCounts(a.Catalog(), parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertEnrichmentsEqual(t, got, want, 1e-12)

	// A differently-built enricher must be refused, not silently merged.
	c, _ := build(78)
	if c.fingerprint == a.fingerprint {
		t.Fatal("distinct fixtures collided on fingerprint")
	}
	bad, err := c.PartialAnalyze(sel, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts[1] = bad
	if _, err := MergeCounts(a.Catalog(), parts, Options{}); err == nil {
		t.Fatal("merge accepted a partial from a mismatched enricher")
	}
}

// TestMergeCountsValidation walks the refusal paths: nil catalog, empty
// merge, duplicate slice, inconsistent slice counts, truncated term arrays.
func TestMergeCountsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enr, sel := randomEnrichmentFixture(t, rng, 60, 150)
	cat := enr.Catalog()
	p0, err := enr.PartialAnalyze(sel, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := enr.PartialAnalyze(sel, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCounts(nil, []*PartialCounts{p0}, Options{}); err == nil {
		t.Fatal("nil catalog accepted")
	}
	if _, err := MergeCounts(cat, nil, Options{}); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeCounts(cat, []*PartialCounts{p0, p0}, Options{}); err == nil {
		t.Fatal("duplicate slice accepted")
	}
	p3, err := enr.PartialAnalyze(sel, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCounts(cat, []*PartialCounts{p0, p3}, Options{}); err == nil {
		t.Fatal("mixed slice counts accepted")
	}
	trunc := *p1
	trunc.Selected = trunc.Selected[:len(trunc.Selected)-1]
	if _, err := MergeCounts(cat, []*PartialCounts{p0, &trunc}, Options{}); err == nil {
		t.Fatal("truncated term counts accepted")
	}
	if _, err := enr.PartialAnalyze(sel, 2, 2); err == nil {
		t.Fatal("out-of-range slice accepted")
	}
	if _, err := enr.PartialAnalyze(sel, 0, 0); err == nil {
		t.Fatal("zero slices accepted")
	}
}

// TestMergeCountsDegradedSubset: merging a strict subset of the partition is
// a valid analysis over the reachable background — table fields shrink to
// the covered range — and an all-misses subset distinguishes "genes unknown
// to the universe" (ErrNoSelection + no InBackground bit set) from "genes
// live in the missing slices" (ErrNoSelection but SelectionKnown).
func TestMergeCountsDegradedSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	enr, sel := randomEnrichmentFixture(t, rng, 150, 400)
	cat := enr.Catalog()
	var parts []*PartialCounts
	coveredN := 0
	for _, s := range []int{0, 2} { // slice 1 of 3 is unreachable
		p, err := enr.PartialAnalyze(sel, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
		coveredN += p.BackgroundSize
	}
	res, err := MergeCounts(cat, parts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("degraded merge returned nothing")
	}
	for _, r := range res {
		if r.BackgroundSize != coveredN {
			t.Fatalf("degraded N = %d, want covered %d", r.BackgroundSize, coveredN)
		}
	}

	// A selection living entirely in the unreachable slice: merged n == 0,
	// but SelectionKnown says the universe holds it.
	missing := -1
	probe, err := enr.PartialAnalyze(sel, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = probe
	for g, gi := range enr.geneIdx {
		w := int(gi >> 6)
		if w >= 1*enr.words/3 && w < 2*enr.words/3 {
			missing = int(gi)
			var hidden []string
			hidden = append(hidden, g)
			var hp []*PartialCounts
			for _, s := range []int{0, 2} {
				p, err := enr.PartialAnalyze(hidden, s, 3)
				if err != nil {
					t.Fatal(err)
				}
				hp = append(hp, p)
			}
			if _, err := MergeCounts(cat, hp, Options{}); !errors.Is(err, ErrNoSelection) {
				t.Fatalf("hidden-slice selection: err = %v, want ErrNoSelection", err)
			}
			if !SelectionKnown(hp) {
				t.Fatal("SelectionKnown must see the universe membership")
			}
			break
		}
	}
	if missing < 0 {
		t.Skip("fixture's middle slice holds no genes")
	}
	// Genes the universe has never heard of: not known, even degraded.
	var up []*PartialCounts
	for _, s := range []int{0, 2} {
		p, err := enr.PartialAnalyze([]string{"NOT-A-GENE"}, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		up = append(up, p)
	}
	if _, err := MergeCounts(cat, up, Options{}); !errors.Is(err, ErrNoSelection) {
		t.Fatalf("unknown selection: err = %v, want ErrNoSelection", err)
	}
	if SelectionKnown(up) {
		t.Fatal("unknown genes must not be SelectionKnown")
	}
}

// TestPartialAnalyzeCancellation: a dead context stops the tally pass.
func TestPartialAnalyzeCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	enr, sel := randomEnrichmentFixture(t, rng, 400, 600)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := enr.PartialAnalyzeCtx(ctx, sel, 0, 2); err != context.Canceled {
		t.Fatalf("canceled ctx: err = %v", err)
	}
}

// TestPartialConcurrentHammer drives concurrent PartialAnalyze calls across
// interleaved slice shapes against one Enricher; with -race it proves the
// partial pass shares nothing mutable and stays deterministic.
func TestPartialConcurrentHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	enr, sel := randomEnrichmentFixture(t, rng, 800, 600)
	cat := enr.Catalog()
	want, err := enr.Analyze(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slices := []int{1, 2, 3, 5}[w%4]
			for iter := 0; iter < 4; iter++ {
				parts := make([]*PartialCounts, slices)
				var err error
				for s := 0; s < slices; s++ {
					if parts[s], err = enr.PartialAnalyze(sel, s, slices); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
				got, err := MergeCounts(cat, parts, Options{})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("worker %d: %d results, want %d", w, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("worker %d: rank %d differs", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
