package spell

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"forestview/internal/synth"
	"forestview/internal/tilecorr"
)

// TestSearchBitsPaperShape pins SPELL's answers on a paper-shaped engine to
// the bit: 6,000 genes, 24 datasets of 12-40 experiments, at 2% and at 15%
// missing cells, queries of 2-9 genes — every block shape the scan meets: a
// block with dead rows, a lone row, two full blocks — weighted and uniform.
// The oracle tests tolerate 1e-12, so they cannot show that a change to the
// kernel or the scan moved nothing; this digest can. It is a SHA-256 over
// every dataset's index, Weight and QueryCoherence bits and every gene's ID
// and Score bits, in result order, one constant per kernel routine (the
// assembly's fused multiply-adds round differently from the Go loop's; the
// "go" digest is what a `-tags purego` build reads). A change that means to
// move a bit records the new digest and says why.
//
// The answers are hashed three ways, to one digest: the single engine; a
// 2-shard fleet's merge of one partial per group (six); and a 4-shard R=2
// fleet's merge of one partial per shard, groups assigned to both replicas.
func TestSearchBitsPaperShape(t *testing.T) {
	want := map[string]string{
		"avx2-fma": "8604c723831c6af4cb7ec5913ff8220d7ed160ca47b918e5eb943d4a39e13654",
		"avx512":   "8604c723831c6af4cb7ec5913ff8220d7ed160ca47b918e5eb943d4a39e13654",
		"go":       "49975abaaa899fa9c36f6df43882c43c97b1934c7d3606caa9acf14e4d20a863",
	}
	u := synth.NewUniverse(6000, 20, 13)
	hs := [3]hash.Hash{sha256.New(), sha256.New(), sha256.New()}
	put := func(h hash.Hash, v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, missing := range []float64{0.02, 0.15} {
		dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: 24, MinExperiments: 12, MaxExperiments: 40,
			ActiveFraction: 0.4, Noise: 0.25, MissingRate: missing, Seed: 17,
		})
		two := newGroupFleet(t, dss, 2, [][2]int{{0, 0}, {1, 1}, {0, 0}, {1, 1}, {0, 0}, {1, 1}})
		four := newGroupFleet(t, dss, 4, pairOwners(4))
		for n := 2; n <= 9; n++ {
			query := u.ModuleGeneIDs(n)[:n]
			for _, uniform := range []bool{false, true} {
				opt := Options{IncludeQuery: true, Parallelism: 2, UniformWeights: uniform}
				single, err := four.full.Search(query, opt)
				if err != nil {
					t.Fatal(err)
				}
				perGroup, _ := mergeRounds(t, func(o Options) []Partial {
					var parts []Partial
					for g, own := range two.owners {
						parts = append(parts, *two.scan(t, own[0], 1<<g, query, o))
					}
					return parts
				}, opt)
				perShard, _ := mergeRounds(t, func(o Options) []Partial {
					var parts []Partial
					for s, mask := range four.masks(0b1010_0110_1001) {
						parts = append(parts, *four.scan(t, s, mask, query, o))
					}
					return parts
				}, opt)
				for k, res := range []*Result{single, perGroup, perShard} {
					for _, d := range res.Datasets {
						put(hs[k], uint64(d.Index))
						put(hs[k], math.Float64bits(d.Weight))
						put(hs[k], math.Float64bits(d.QueryCoherence))
					}
					for _, g := range res.Genes {
						hs[k].Write([]byte(g.ID))
						put(hs[k], math.Float64bits(g.Score))
					}
				}
			}
		}
	}
	for k, shape := range []string{"single engine", "2 shards", "4 shards R=2"} {
		if got := hex.EncodeToString(hs[k].Sum(nil)); got != want[tilecorr.KernelName()] {
			t.Errorf("%s: search digest %s, want %s: some weight or score moved a bit", shape, got, want[tilecorr.KernelName()])
		}
	}
}
