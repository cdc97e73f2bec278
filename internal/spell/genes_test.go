package spell

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// geneFixture is a small compendium and two engines over it: dense, in
// which every gene scores on a module query, and sparse, whose extra
// disjoint dataset leaves genes unscored (the compacting path).
func geneFixture(t *testing.T) (dss []*microarray.Dataset, dense, sparse *Engine, query []string, scan func(*Engine, []string, []int) *Partial) {
	t.Helper()
	u := synth.NewUniverse(90, 5, 7)
	dss, _ = u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 3, MinExperiments: 8, MaxExperiments: 10,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.04, Seed: 8,
	})
	var err error
	if dense, err = NewEngine(dss); err != nil {
		t.Fatal(err)
	}
	if sparse, err = NewEngine(append(dss, disjointDataset("disjoint", 12, 8, 9))); err != nil {
		t.Fatal(err)
	}
	scan = func(e *Engine, q []string, subset []int) *Partial {
		p, err := e.PartialSearchSubsetCtx(context.Background(), q, subset, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return dss, dense, sparse, u.ModuleGeneIDs(1)[:3], scan
}

// TestEngineAppendPartial: an engine's frame of a partial is byte for byte
// what AppendBinary writes, whether the engine copies its encoded gene
// columns (a partial of its whole universe) or cannot: a compacted subset,
// an empty partial, or a partial another engine scanned, as a reload leaves
// one: an engine over the same genes in arrays of its own, or a grown one.
func TestEngineAppendPartial(t *testing.T) {
	dss, dense, sparse, query, scan := geneFixture(t)
	reloaded, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := dense.Grow([]*microarray.Dataset{disjointDataset("disjoint", 12, 8, 9)})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		e      *Engine
		p      *Partial
		shared bool
	}{
		"full":     {dense, scan(dense, query, nil), true},
		"subset":   {sparse, scan(sparse, query, []int{2, 3, 0}), false},
		"empty":    {sparse, scan(sparse, []string{"NOPE1", "NOPE2"}, nil), false},
		"reloaded": {reloaded, scan(dense, query, nil), false},
		"grown":    {grown, scan(dense, query, nil), false},
	} {
		if c.e.ownsGenes(c.p) != c.shared {
			t.Fatalf("%s: engine owns the partial's genes = %t", name, !c.shared)
		}
		if name == "subset" && (len(c.p.IDs) == 0 || len(c.p.IDs) >= sparse.NumGenes()) {
			t.Fatalf("subset partial scored %d of %d genes: not compacted", len(c.p.IDs), sparse.NumGenes())
		}
		want, err := c.p.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		for try := range 2 { // the second reuses what the first built
			got, err := c.e.AppendPartial([]byte("head"), c.p)
			if err != nil || string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
				t.Fatalf("%s, call %d: engine frame differs from AppendBinary's (%v)", name, try, err)
			}
		}
	}
	if reloaded.genes != nil || grown.genes != nil {
		t.Fatal("an engine that encoded no partial of its own built its gene columns")
	}
}

// TestGeneColumnsShareOnlyEqualBytes: frames with the same gene column
// bytes share one decoded copy; a frame one byte away decodes afresh, to
// what UnmarshalBinary makes of it, and leaves the shared copy as it was.
func TestGeneColumnsShareOnlyEqualBytes(t *testing.T) {
	_, dense, _, query, scan := geneFixture(t)
	p := scan(dense, query, nil)
	frame, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var genes GeneColumns
	var a, b Partial
	if err := a.UnmarshalShared(frame, &genes); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalShared(frame, &genes); err != nil {
		t.Fatal(err)
	}
	if &a.IDs[0] != &b.IDs[0] || &a.Names[0] != &b.Names[0] {
		t.Fatal("two frames with the same gene columns decoded two copies")
	}

	ids := frameSections(p)[6]
	flipped := bytes.Clone(frame)
	flipped[ids+8+int(binary.LittleEndian.Uint32(flipped[ids:]))] ^= 0x20 // the first ID's first byte
	var c, fresh Partial
	if err := c.UnmarshalShared(flipped, &genes); err != nil {
		t.Fatal(err)
	}
	if err := fresh.UnmarshalBinary(flipped); err != nil {
		t.Fatal(err)
	}
	if &c.IDs[0] == &a.IDs[0] || c.IDs[0] == p.IDs[0] || !reflect.DeepEqual(partialBits(&c), partialBits(&fresh)) {
		t.Fatalf("a frame with another first ID (%q) decoded as %q", fresh.IDs[0], c.IDs[0])
	}
	if !reflect.DeepEqual(partialBits(&a), partialBits(p)) {
		t.Fatal("decoding another frame changed the shared columns")
	}
}

// TestMergeSharedColumnsConcurrently: goroutines that encode through one
// engine, decode through one GeneColumns and merge parts sharing one copy
// of the gene columns, all at once, agree with a merge over parts that share
// nothing. Under -race this shows the two memos are safe to share and that
// Merge never writes to a part's columns.
func TestMergeSharedColumnsConcurrently(t *testing.T) {
	_, dense, _, query, _ := geneFixture(t)
	var genes GeneColumns
	var parts []*Partial
	var shared, apart []Partial
	for di := range dense.NumDatasets() {
		p, err := dense.PartialSearchSubsetCtx(context.Background(), query, []int{di}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var s, q Partial
		if err := s.UnmarshalShared(frame, &genes); err != nil {
			t.Fatal(err)
		}
		if err := q.UnmarshalBinary(frame); err != nil {
			t.Fatal(err)
		}
		parts, shared, apart = append(parts, p), append(shared, s), append(apart, q)
	}
	if !dense.ownsGenes(parts[0]) || &shared[0].IDs[0] != &shared[len(shared)-1].IDs[0] {
		t.Fatal("the fixture's parts do not share their gene columns")
	}
	want, err := Merge(apart, Options{MaxGenes: 20})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				own := make([]Partial, len(parts))
				for i, p := range parts {
					frame, err := dense.AppendPartial(nil, p)
					if err == nil {
						err = own[i].UnmarshalShared(frame, &genes)
					}
					if err != nil {
						t.Errorf("part %d through the memos: %v", i, err)
						return
					}
				}
				for _, ps := range [][]Partial{shared, own} {
					if got, err := Merge(ps, Options{MaxGenes: 20}); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("merge over shared columns: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
