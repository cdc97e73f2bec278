package spell

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"forestview/internal/synth"
	"forestview/internal/tilecorr"
)

// TestSearchBitsPaperShape pins SPELL's answers on a paper-shaped engine to
// the bit: 6,000 genes, 24 datasets of 12-40 experiments, at 2% and at 15%
// missing cells, queries of 2-9 genes — every block shape the scan meets: a
// block with dead rows, a lone row, two full blocks — weighted and uniform.
// The parity tests tolerate 1e-12, so they cannot show that a change to the
// kernel or the scan moved nothing; this digest can. It is a SHA-256 over
// every dataset's index, Weight and QueryCoherence bits and every gene's ID
// and Score bits, in result order, one constant per kernel routine (the
// assembly's fused multiply-adds round differently from the Go loop's; the
// "go" digest is what a `-tags purego` build reads). A change that means to
// move a bit records the new digest and says why.
func TestSearchBitsPaperShape(t *testing.T) {
	want := map[string]string{
		"avx2-fma": "42ac7891426b377fd5d363181892a7b793c8d2d65ca3a242cac6e6c3f690e527",
		"go":       "07ccaf931788965163e7a20a8e468f15aa52d9778adebf70bd92f4759d562bfe",
	}
	u := synth.NewUniverse(6000, 20, 13)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, missing := range []float64{0.02, 0.15} {
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: 24, MinExperiments: 12, MaxExperiments: 40,
			ActiveFraction: 0.4, Noise: 0.25, MissingRate: missing, Seed: 17,
		})
		e, err := NewEngine(dss)
		if err != nil {
			t.Fatal(err)
		}
		for n := 2; n <= 9; n++ {
			query := u.ModuleGeneIDs(n)[:n]
			for _, uniform := range []bool{false, true} {
				res, err := e.Search(query, Options{IncludeQuery: true, Parallelism: 2, UniformWeights: uniform})
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range res.Datasets {
					put(uint64(d.Index))
					put(math.Float64bits(d.Weight))
					put(math.Float64bits(d.QueryCoherence))
				}
				for _, g := range res.Genes {
					h.Write([]byte(g.ID))
					put(math.Float64bits(g.Score))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want[tilecorr.KernelName()] {
		t.Fatalf("search digest %s, want %s: some weight or score moved a bit", got, want[tilecorr.KernelName()])
	}
}
