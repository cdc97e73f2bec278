package microarray

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testDataset(t *testing.T) *Dataset {
	t.Helper()
	ds := NewDataset("test", []string{"e1", "e2", "e3"})
	rows := []struct {
		g Gene
		v []float64
	}{
		{Gene{ID: "YAL001C", Name: "TFC3", Annotation: "transcription factor"}, []float64{1, 2, 3}},
		{Gene{ID: "YAL002W", Name: "VPS8", Annotation: "vacuolar sorting"}, []float64{-1, Missing, 0.5}},
		{Gene{ID: "YAL003W", Name: "EFB1", Annotation: "elongation factor"}, []float64{0, 0, 0}},
	}
	for _, r := range rows {
		if err := ds.AddGene(r.g, r.v); err != nil {
			t.Fatalf("AddGene: %v", err)
		}
	}
	return ds
}

func TestAddGeneAndAccessors(t *testing.T) {
	ds := testDataset(t)
	if ds.NumGenes() != 3 || ds.NumExperiments() != 3 {
		t.Fatalf("dims = %dx%d", ds.NumGenes(), ds.NumExperiments())
	}
	if v := ds.Value(0, 1); v != 2 {
		t.Fatalf("Value(0,1) = %v", v)
	}
	if !math.IsNaN(ds.Value(1, 1)) {
		t.Fatal("missing value should be NaN")
	}
	if !math.IsNaN(ds.Value(-1, 0)) || !math.IsNaN(ds.Value(0, 99)) {
		t.Fatal("out of range should be NaN")
	}
	col := ds.Column(0)
	if col[0] != 1 || col[1] != -1 || col[2] != 0 {
		t.Fatalf("Column(0) = %v", col)
	}
	if ds.Column(99) != nil || ds.Row(99) != nil {
		t.Fatal("out of range row/col should be nil")
	}
}

func TestAddGeneErrors(t *testing.T) {
	ds := NewDataset("x", []string{"a"})
	if err := ds.AddGene(Gene{ID: "G1"}, []float64{1, 2}); err == nil {
		t.Fatal("wrong-width row should error")
	}
	if err := ds.AddGene(Gene{ID: "G1"}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddGene(Gene{ID: "G1"}, []float64{2}); err == nil {
		t.Fatal("duplicate ID should error")
	}
}

func TestGeneIndex(t *testing.T) {
	ds := testDataset(t)
	if i, ok := ds.GeneIndex("YAL002W"); !ok || i != 1 {
		t.Fatalf("GeneIndex = %d, %v", i, ok)
	}
	if i, ok := ds.GeneIndex("yal002w"); !ok || i != 1 {
		t.Fatalf("case-insensitive lookup failed: %d %v", i, ok)
	}
	if i, ok := ds.GeneIndex("efb1"); !ok || i != 2 {
		t.Fatalf("lookup by common name failed: %d %v", i, ok)
	}
	if _, ok := ds.GeneIndex("NOPE"); ok {
		t.Fatal("nonexistent gene should not be found")
	}
}

func TestAddGeneCopiesValues(t *testing.T) {
	ds := NewDataset("x", []string{"a"})
	vals := []float64{7}
	_ = ds.AddGene(Gene{ID: "G1"}, vals)
	vals[0] = 99
	if ds.Value(0, 0) != 7 {
		t.Fatal("AddGene must copy its input")
	}
}

func TestValidate(t *testing.T) {
	ds := testDataset(t)
	if err := ds.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	// A matrix without its gene table counts its rows, finds no gene and
	// fails validation.
	m := &Dataset{Name: ds.Name, Experiments: ds.Experiments, Data: ds.Data}
	if m.NumGenes() != 3 {
		t.Fatalf("matrix NumGenes = %d, want 3", m.NumGenes())
	}
	if i, ok := m.GeneIndex("YAL001C"); ok {
		t.Fatalf("matrix GeneIndex found row %d", i)
	}
	if ids := m.GeneIDs(); len(ids) != 0 {
		t.Fatalf("matrix GeneIDs = %v", ids)
	}
	if err := m.Validate(); err == nil || err.Error() != "microarray: 3 data rows vs 0 genes" {
		t.Fatalf("matrix Validate = %v", err)
	}
	ds.Data[1] = ds.Data[1][:2]
	if err := ds.Validate(); err == nil {
		t.Fatal("ragged data should fail validation")
	}
}

func TestSubset(t *testing.T) {
	ds := testDataset(t)
	sub := ds.Subset("sub", []int{2, 0, 99, -1})
	if sub.NumGenes() != 2 {
		t.Fatalf("subset genes = %d, want 2", sub.NumGenes())
	}
	if sub.Genes[0].ID != "YAL003W" || sub.Genes[1].ID != "YAL001C" {
		t.Fatalf("subset order wrong: %v", sub.GeneIDs())
	}
	if sub.Value(1, 2) != 3 {
		t.Fatalf("subset data wrong: %v", sub.Value(1, 2))
	}
	// Mutating the subset must not affect the original.
	sub.Data[0][0] = 42
	if ds.Value(2, 0) == 42 {
		t.Fatal("Subset must copy data")
	}
}

func TestReorder(t *testing.T) {
	ds := testDataset(t)
	if err := ds.Reorder([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if ds.Genes[0].ID != "YAL003W" || ds.Genes[1].ID != "YAL001C" {
		t.Fatalf("reorder wrong: %v", ds.GeneIDs())
	}
	// Index must be rebuilt.
	if i, ok := ds.GeneIndex("YAL001C"); !ok || i != 1 {
		t.Fatalf("index stale after reorder: %d %v", i, ok)
	}
	if err := ds.Reorder([]int{0, 0, 1}); err == nil {
		t.Fatal("non-permutation should error")
	}
	if err := ds.Reorder([]int{0}); err == nil {
		t.Fatal("short order should error")
	}
}

func TestMissingFraction(t *testing.T) {
	ds := testDataset(t)
	got := ds.MissingFraction()
	want := 1.0 / 9.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MissingFraction = %v, want %v", got, want)
	}
	empty := NewDataset("e", nil)
	if empty.MissingFraction() != 0 {
		t.Fatal("empty dataset missing fraction should be 0")
	}
}

func TestClone(t *testing.T) {
	ds := testDataset(t)
	c := ds.Clone()
	c.Data[0][0] = 99
	c.Genes[0].Name = "CHANGED"
	if ds.Value(0, 0) == 99 || ds.Genes[0].Name == "CHANGED" {
		t.Fatal("Clone must deep-copy")
	}
}

func TestSortGenesByID(t *testing.T) {
	ds := NewDataset("x", []string{"a"})
	_ = ds.AddGene(Gene{ID: "C"}, []float64{3})
	_ = ds.AddGene(Gene{ID: "A"}, []float64{1})
	_ = ds.AddGene(Gene{ID: "B"}, []float64{2})
	ds.SortGenesByID()
	if ds.Genes[0].ID != "A" || ds.Genes[1].ID != "B" || ds.Genes[2].ID != "C" {
		t.Fatalf("sorted = %v", ds.GeneIDs())
	}
	if ds.Value(0, 0) != 1 || ds.Value(2, 0) != 3 {
		t.Fatal("data did not follow the sort")
	}
}

// Property: Reorder with a random permutation preserves the multiset of
// rows and the ID->row association.
func TestQuickReorderPreservesRows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(20) + 2
		ds := NewDataset("q", []string{"e1", "e2"})
		for i := 0; i < n; i++ {
			_ = ds.AddGene(Gene{ID: string(rune('A'+i%26)) + string(rune('0'+i/26))},
				[]float64{float64(i), r.NormFloat64()})
		}
		want := make(map[string]float64, n)
		for i, g := range ds.Genes {
			want[g.ID] = ds.Value(i, 0)
		}
		order := r.Perm(n)
		if err := ds.Reorder(order); err != nil {
			return false
		}
		for i, g := range ds.Genes {
			if ds.Value(i, 0) != want[g.ID] {
				return false
			}
			if idx, ok := ds.GeneIndex(g.ID); !ok || idx != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
