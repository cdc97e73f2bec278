package spell

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
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
			got, err := c.e.AppendPartial([]byte("head"), c.p, nil)
			if err != nil || string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
				t.Fatalf("%s, call %d: engine frame differs from AppendBinary's (%v)", name, try, err)
			}
		}
	}
	if reloaded.genes != nil || grown.genes != nil {
		t.Fatal("an engine that encoded no partial of its own built its gene columns")
	}
}

// TestEngineAppendPartialNamesHeldGenes: a frame of an engine's own genes
// names them by digest exactly when the request lists that digest, and a
// reader that holds the pair decodes it to what the carried frame decodes
// to; a reader that does not hold it, or holds another, refuses it.
func TestEngineAppendPartialNamesHeldGenes(t *testing.T) {
	_, dense, _, query, scan := geneFixture(t)
	p := scan(dense, query, nil)
	carried, err := dense.AppendPartial(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var genes GeneColumns
	var want Partial
	if err := want.UnmarshalShared(carried, genes.Held()); err != nil {
		t.Fatal(err)
	}
	held := genes.Held()
	if d := held.Digests(); len(d) != 1 || d[0] != sha256.Sum256(dense.genes) {
		t.Fatalf("held digests %x, want the engine's", d)
	}
	other := GenesDigest{1}
	if got, _ := dense.AppendPartial(nil, p, []GenesDigest{other}); !bytes.Equal(got, carried) {
		t.Fatal("a frame named a pair the request did not list")
	}
	named, err := dense.AppendPartial(nil, p, []GenesDigest{other, held.Digests()[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(named) != len(carried)-len(dense.genes)+sha256.Size {
		t.Fatalf("a frame naming its genes is %d bytes, carrying them %d", len(named), len(carried))
	}
	var got Partial
	if err := got.UnmarshalShared(named, held); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(partialBits(&got), partialBits(&want)) || &got.IDs[0] != &want.IDs[0] || got.geneIndex() == nil {
		t.Fatal("a frame naming held genes decoded to another partial, or to other columns")
	}
	var plain, elsewhere Partial
	var otherGenes GeneColumns
	awkward, _ := awkwardPartial().MarshalBinary()
	if err := elsewhere.UnmarshalShared(awkward, otherGenes.Held()); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"plain":      plain.UnmarshalBinary(named),
		"empty":      plain.UnmarshalShared(named, new(GeneColumns).Held()),
		"other pair": plain.UnmarshalShared(named, otherGenes.Held()),
	} {
		if err == nil || !reflect.DeepEqual(plain, Partial{}) {
			t.Fatalf("%s: a frame naming a pair the reader does not hold decoded (%v)", name, err)
		}
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
	if err := a.UnmarshalShared(frame, genes.Held()); err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalShared(frame, genes.Held()); err != nil {
		t.Fatal(err)
	}
	if &a.IDs[0] != &b.IDs[0] || &a.Names[0] != &b.Names[0] {
		t.Fatal("two frames with the same gene columns decoded two copies")
	}

	ids := frameSections(p)[7]
	flipped := bytes.Clone(frame)
	flipped[ids+8+int(binary.LittleEndian.Uint32(flipped[ids:]))] ^= 0x20 // the first ID's first byte
	var c, fresh Partial
	if err := c.UnmarshalShared(flipped, genes.Held()); err != nil {
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
		if err := s.UnmarshalShared(frame, genes.Held()); err != nil {
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
					held := genes.Held()
					frame, err := dense.AppendPartial(nil, p, held.Digests())
					if err == nil {
						err = own[i].UnmarshalShared(frame, held)
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

// TestMergeTakesALonePart pins Merge's ownership rule. Over one part — what
// a single daemon merges — the union is that part's accumulator columns, not
// a copy: the ranking leaves each ranked gene's score in the part's Sums. Over
// several parts the union has columns of its own, and every part keeps every
// bit of its accumulators.
func TestMergeTakesALonePart(t *testing.T) {
	_, dense, _, query, scan := geneFixture(t)
	p := scan(dense, query, nil)
	res, err := Merge([]Partial{*p}, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Genes {
		if s := slices.Index(p.IDs, g.ID); math.Float64bits(p.Sums[sumHi][s]) != math.Float64bits(g.Score) {
			t.Fatalf("gene %s scores %v, its row of the lone part holds %v: the union was a copy", g.ID, g.Score, p.Sums[sumHi][s])
		}
	}

	parts := []Partial{*scan(dense, query, []int{0, 2}), *scan(dense, query, []int{1})}
	parts[1].Datasets[0].Index = 1
	was := []any{partialBits(&parts[0]), partialBits(&parts[1])}
	if _, err := Merge(parts, Options{IncludeQuery: true}); err != nil {
		t.Fatal(err)
	}
	for i := range parts {
		if !reflect.DeepEqual(partialBits(&parts[i]), was[i]) {
			t.Fatalf("part %d of two: Merge wrote its accumulators", i)
		}
	}
}

// TestMarkQueryByIndex: wherever Merge or Search finds a partial's query
// rows — the engine's gene index, the index a GeneColumns keeps of a column
// it decoded, the union's slot table — it marks the rows searching every ID
// in the query marks, and a partial whose IDs are not the indexed column
// falls back to that search.
func TestMarkQueryByIndex(t *testing.T) {
	_, dense, sparse, query, scan := geneFixture(t)
	query = append(slices.Clone(query), "not-a-gene")
	slices.Sort(query)
	mark := func(p *Partial) []bool {
		q := make([]bool, len(p.IDs))
		markQuery(q, p)
		return q
	}
	search := func(p *Partial) []bool {
		q := make([]bool, len(p.IDs))
		for s, id := range p.IDs {
			q[s] = slices.Contains(p.Query, id)
		}
		return q
	}
	whole := scan(dense, query, nil)
	if whole.geneIndex() == nil {
		t.Fatal("a partial in which every gene scored has no gene index")
	}
	copied := *whole
	copied.IDs = slices.Clone(whole.IDs)
	var genes GeneColumns
	frame, err := dense.AppendPartial(nil, whole, nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded [2]Partial
	for i := range decoded {
		if err := decoded[i].UnmarshalShared(frame, genes.Held()); err != nil {
			t.Fatal(err)
		}
	}
	if decoded[1].geneIndex() == nil {
		t.Fatal("a frame decoded through a GeneColumns has no gene index")
	}
	for name, p := range map[string]*Partial{
		"engine": whole, "copied IDs": &copied, "decoded": &decoded[0], "decoded again": &decoded[1],
		"compacted": scan(sparse, query, []int{0, 3}),
	} {
		if got, want := mark(p), search(p); !slices.Equal(got, want) || !slices.Contains(got, true) {
			t.Fatalf("%s: query rows %v, the search marks %v", name, got, want)
		}
	}

	// A union of parts listing their genes in other orders is found through
	// its slot table.
	parts := []Partial{*scan(dense, query, []int{0, 2}), *scan(dense, query, []int{1})}
	b := &parts[1]
	b.Datasets[0].Index = 1
	b.IDs, b.Names = slices.Clone(b.IDs), slices.Clone(b.Names)
	for _, col := range [][]string{b.IDs, b.Names} {
		slices.Reverse(col)
	}
	for _, col := range b.Sums {
		slices.Reverse(col)
	}
	res, err := Merge(parts, Options{IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Genes {
		if g.IsQuery != slices.Contains(query, g.ID) {
			t.Fatalf("merged gene %s: IsQuery %t", g.ID, g.IsQuery)
		}
	}
}
