package spell

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"forestview/internal/synth"
)

// partialBits renders a Partial with every float as its bit pattern, so
// DeepEqual compares exactly (NaN payloads, the sign of zero) and a nil
// column equals an empty one.
func partialBits(p *Partial) any {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	strs := func(xs []string) []string { return append([]string{}, xs...) }
	type ds struct {
		Index, Present int
		Name           string
		Coherence      uint64
	}
	dss := make([]ds, len(p.Datasets))
	for i, d := range p.Datasets {
		dss[i] = ds{d.Index, d.Present, d.Name, math.Float64bits(d.Coherence)}
	}
	return []any{strs(p.Query), dss, p.Uniform, strs(p.IDs), strs(p.Names), bits(p.Sums[0]), bits(p.Sums[1]), bits(p.Sums[2]), bits(p.Sums[3])}
}

// awkwardPartial is a hand-built partial holding every value an encoding
// could plausibly lose: NaNs with distinct payloads, both zeros, subnormal
// and extreme sums, negative and large dataset indexes, empty and non-ASCII
// names.
func awkwardPartial() *Partial {
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	return &Partial{
		Query: []string{"YAL001C", "ÿ-gène", "遺伝子"},
		Datasets: []PartialDataset{
			{Index: 0, Name: "plain", Coherence: 0.25, Present: 3},
			{Index: 7, Name: "", Coherence: math.NaN(), Present: 1},
			{Index: -1, Name: "payload (β-estradiol, 37°C)", Coherence: payloadNaN, Present: 0},
			{Index: math.MaxInt32, Name: "negative zero", Coherence: math.Copysign(0, -1), Present: 2},
			{Index: 3, Name: "infinite", Coherence: math.Inf(-1), Present: 2},
		},
		Uniform: true,
		IDs:     []string{"YAL001C", "ÿ-gène", "", "遺伝子", string(make([]byte, 200))},
		Names:   []string{"TFC3", "", "naïve", "名前", "long-id"},
		Sums: [4][]float64{
			{1.5, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, payloadNaN},
			{0x1p-70, -0x1p-31, 0, math.NaN(), 1},
			{2, 0, 5e-324, math.MaxFloat64, math.Inf(1)},
			{0, math.Copysign(0, -1), -5e-324, math.Inf(-1), 3},
		},
	}
}

// enginePartials computes real partials covering the shapes the engine
// produces: the whole slice with every gene scoring (columns shared with
// the engine), of either accumulator kind, a dataset subset in which some
// genes never score (the compacting path), and the two empty partials — a
// query the slice does not measure, and an empty subset.
func enginePartials(t testing.TB) map[string]*Partial {
	t.Helper()
	u := synth.NewUniverse(90, 5, 7)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 3, MinExperiments: 8, MaxExperiments: 10,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.04, Seed: 8,
	})
	dense, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	// The disjoint dataset's genes are in the gene index but score nowhere.
	sparse, err := NewEngine(append(dss, disjointDataset("disjoint", 12, 8, 9)))
	if err != nil {
		t.Fatal(err)
	}
	query := u.ModuleGeneIDs(1)[:3]
	out := map[string]*Partial{}
	for name, c := range map[string]struct {
		e       *Engine
		query   []string
		subset  []int
		uniform bool
	}{
		"full":         {dense, query, nil, false},
		"full-uniform": {dense, query, nil, true},
		"subset":       {sparse, query, []int{2, 3, 0}, true},
		"no-query":     {sparse, []string{"NOPE1", "NOPE2"}, nil, false},
		"no-subset":    {sparse, query, []int{}, false},
	} {
		p, err := c.e.PartialSearchSubsetCtx(context.Background(), c.query, c.subset, Options{UniformWeights: c.uniform})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	for _, name := range []string{"full", "full-uniform"} {
		if full := out[name]; len(full.IDs) != dense.NumGenes() || !dense.ownsGenes(full) || full.Uniform != (name == "full-uniform") {
			t.Fatalf("%s partial: %d of %d genes (uniform=%t), or columns not shared with the engine", name, len(full.IDs), dense.NumGenes(), full.Uniform)
		}
	}
	if n := len(out["subset"].IDs); n == 0 || n >= sparse.NumGenes() {
		t.Fatalf("subset partial scored %d of %d genes: the compacting path is not exercised", n, sparse.NumGenes())
	}
	if p := out["no-query"]; len(p.IDs) != 0 || len(p.Datasets) != 4 || p.Datasets[0].Present != 0 {
		t.Fatalf("no-query partial: %d genes, datasets %+v", len(p.IDs), p.Datasets)
	}
	return out
}

// TestPartialFrameRoundTrip: a frame carries every bit of a Partial, both
// bare and inside a gob envelope (which picks the frame up through the
// BinaryMarshaler hook), and encoding what was decoded yields the same bytes.
func TestPartialFrameRoundTrip(t *testing.T) {
	cases := enginePartials(t)
	cases["awkward"] = awkwardPartial()
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			frame, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if cap(frame) != len(frame) {
				t.Errorf("frame sized inexactly: len %d cap %d", len(frame), cap(frame))
			}
			var back Partial
			if err := back.UnmarshalBinary(frame); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(partialBits(&back), partialBits(p)) {
				t.Fatalf("frame round trip changed the partial:\n got %+v\nwant %+v", partialBits(&back), partialBits(p))
			}
			again, err := back.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatal("re-encoding a decoded frame changed its bytes")
			}

			// Through gob, by pointer and by value.
			for _, v := range []any{p, *p} {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(v); err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(buf.Bytes(), frame) {
					t.Fatal("gob did not envelope the frame verbatim")
				}
				var viaGob Partial
				if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(partialBits(&viaGob), partialBits(p)) {
					t.Fatal("gob round trip changed the partial")
				}
			}
		})
	}
}

// TestPartialFrameRaggedColumns: a partial whose columns disagree in length
// cannot be framed or merged.
func TestPartialFrameRaggedColumns(t *testing.T) {
	p := awkwardPartial()
	p.Sums[cntLo] = p.Sums[cntLo][:len(p.Sums[cntLo])-1]
	if _, err := p.MarshalBinary(); err == nil {
		t.Error("ragged partial framed")
	}
	if _, err := Merge([]Partial{*p}, Options{}); err == nil {
		t.Error("ragged partial merged")
	}
}

// frameSections returns the offsets at which the sections of p's frame end
// (the last one is the frame length), recomputed from the documented layout
// rather than taken from the encoder.
func frameSections(p *Partial) []int {
	col := func(xs []string) int {
		n := 8
		for _, s := range xs {
			n += len(binary.AppendUvarint(nil, uint64(len(s)))) + len(s)
		}
		return n
	}
	names := make([]string, len(p.Datasets))
	for i, d := range p.Datasets {
		names[i] = d.Name
	}
	ends := []int{4, 5, 6, 18}
	add := func(n int) { ends = append(ends, ends[len(ends)-1]+n) }
	add(col(p.Query))
	add(col(names))
	add(24 * len(p.Datasets))
	add(1)
	add(col(p.IDs))
	add(col(p.Names))
	for _, c := range p.Sums {
		if slices.ContainsFunc(c, func(v float64) bool { return math.Float64bits(v) != math.Float64bits(c[0]) }) || len(c) == 0 {
			add(1 + 8*len(c))
		} else {
			add(1 + 8)
		}
	}
	return ends
}

// frameCorpus builds the FuzzPartialFrame seed corpus: valid frames, and
// one malformed frame per way the length checks can be violated.
func frameCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	small := &Partial{
		Query: []string{"A", "Bb"},
		Datasets: []PartialDataset{
			{Index: 2, Name: "d2", Coherence: 0.5, Present: 2},
			{Index: 5, Name: "d5", Coherence: math.NaN(), Present: 1},
		},
		IDs:   []string{"A", "Bb", "Ccc"},
		Names: []string{"a", "", "c-name"},
		Sums:  [4][]float64{{1, 2, 3}, {0x1p-40, 0, -0x1p-40}, {0.5, 0.5, 0.5}, {0, 0x1p-60, 0}},
	}
	frame := func(p *Partial) []byte {
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	valid := frame(small)
	ends := frameSections(small)
	if ends[len(ends)-1] != len(valid) {
		t.Fatalf("documented layout says %d bytes, the encoder wrote %d", ends[len(ends)-1], len(valid))
	}
	out := map[string][]byte{
		"valid-small":   valid,
		"valid-awkward": frame(awkwardPartial()),
		"valid-empty":   frame(&Partial{Query: []string{"A", "B"}, Datasets: []PartialDataset{{Name: "d", Coherence: math.NaN()}}}),
		"empty-input":   {},
	}
	for i, end := range ends[:len(ends)-1] {
		out[fmt.Sprintf("truncated-section-%02d", i)] = valid[:end]
		out[fmt.Sprintf("truncated-section-%02d-short", i)] = valid[:end-1]
	}
	out["truncated-last-byte"] = valid[:len(valid)-1]
	mutate := func(name string, at int, with ...byte) {
		b := append([]byte(nil), valid...)
		copy(b[at:], with)
		out[name] = b
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff}
	mutate("bad-magic", 0, 'X')
	mutate("bad-version", 4, frameHead[4]+1)
	mutate("bad-kind", 5, 2)
	mutate("huge-query-count", 6, huge...)
	mutate("huge-dataset-count", 10, huge...)
	mutate("huge-gene-count", 14, huge...)
	mutate("huge-query-table", 18, huge...)
	mutate("huge-query-blob", 22, huge...)
	mutate("huge-id-table", ends[7], huge...)
	mutate("huge-id-blob", ends[7]+4, huge...)
	mutate("gene-count-short-of-columns", 14, 2, 0, 0, 0)
	mutate("gene-count-beyond-columns", 14, 4, 0, 0, 0)
	mutate("id-lengths-exceed-blob", ends[7]+8, 3)    // "A" claims 3 bytes: the lengths sum past the blob
	mutate("id-lengths-short-of-blob", ends[7]+10, 1) // "Ccc" claims 1 byte: blob bytes left over
	mutate("id-length-unterminated-varint", ends[7]+10, 0x80)
	mutate("id-length-two-byte-varint", ends[7]+9, 0x80) // 0x80 0x03: one 384-byte string where two short ones were
	mutate("genes-bad-tag", ends[6], 2)
	mutate("floats-bad-tag", ends[9], 2)
	mutate("floats-one-where-each", ends[12], floatsOne)  // cntLo's three values read as one: bytes left over
	mutate("floats-each-where-one", ends[11], floatsEach) // cntHi's one value read as three: cntLo's bytes left over
	out["columns-one-float-short"] = valid[:len(valid)-8]
	out["trailing-byte"] = append(append([]byte(nil), valid...), 0)
	// A frame naming a held pair: no reader without a GeneColumns holds it.
	held := append(bytes.Clone(valid[:ends[6]]), genesHeld)
	held = append(held, make([]byte, 32)...)
	out["genes-held-unheld"] = append(held, valid[ends[8]:]...)
	// A frame of no genes whose float columns each claim one value.
	empty := out["valid-empty"]
	noGenes := bytes.Clone(empty[:len(empty)-4])
	for range 4 {
		noGenes = append(append(noGenes, floatsOne), make([]byte, 8)...)
	}
	out["floats-one-no-genes"] = noGenes
	return out
}

const frameCorpusDir = "testdata/fuzz/FuzzPartialFrame"

// oldFramePrefixes mark the committed seeds of earlier frame versions: every
// frame the version-1 and version-2 corpora held, valid ones included. They
// stay in the corpus as inputs this build must reject (a peer that still
// speaks an old version is a failed attempt, never a misread partial).
var oldFramePrefixes = []string{"v1", "v2", "v3"}

var updateFrameCorpus = flag.Bool("update-frame-corpus", false, "rewrite "+frameCorpusDir+" from frameCorpus")

// corpusEntry formats (and parses back) one seed file of a []byte fuzz target.
func corpusEntry(b []byte) string {
	return "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
}

func parseCorpusEntry(t testing.TB, body string) []byte {
	t.Helper()
	quoted, ok := strings.CutPrefix(body, "go test fuzz v1\n[]byte(")
	quoted, ok2 := strings.CutSuffix(quoted, ")\n")
	b, err := strconv.Unquote(quoted)
	if !ok || !ok2 || err != nil {
		t.Fatalf("not a []byte corpus entry: %q", body)
	}
	return []byte(b)
}

// TestPartialFrameCorpusCommitted keeps the committed fuzz corpus equal to
// what frameCorpus builds. The corpus holds valid frames of the current
// version, so this is also the test that fails when the frame layout changes
// without a version bump: bump frameHead's version, rename the old seeds
// under a prefix of oldFramePrefixes, and only then regenerate with
// -update-frame-corpus (which leaves the old versions' seeds alone).
func TestPartialFrameCorpusCommitted(t *testing.T) {
	want := map[string]string{}
	for name, b := range frameCorpus(t) {
		want[name] = corpusEntry(b)
	}
	if *updateFrameCorpus {
		if err := os.MkdirAll(frameCorpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range want {
			if err := os.WriteFile(filepath.Join(frameCorpusDir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(frameCorpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seeds, old := 0, map[string]int{}
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(frameCorpusDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if prefix, _, ok := strings.Cut(e.Name(), "-"); ok && slices.Contains(oldFramePrefixes, prefix) {
			old[prefix]++
			var p Partial
			if err := p.UnmarshalBinary(parseCorpusEntry(t, string(got))); err == nil {
				t.Errorf("%s/%s: a frame of an old version decoded", frameCorpusDir, e.Name())
			}
			continue
		}
		body, ok := want[e.Name()]
		if !ok {
			continue // an input the fuzzer found and someone committed
		}
		seeds++
		if string(got) != body {
			t.Errorf("%s/%s is not what frameCorpus builds: the frame layout changed (bump frameHead's version, keep the old seeds, then -update-frame-corpus)", frameCorpusDir, e.Name())
		}
	}
	if seeds != len(want) {
		t.Errorf("%d of %d seed frames committed under %s", seeds, len(want), frameCorpusDir)
	}
	for _, prefix := range oldFramePrefixes {
		if n := old[prefix]; n < 3 {
			t.Errorf("%d %s- seeds under %s: the must-reject part of the corpus is gone", n, prefix, frameCorpusDir)
		}
	}
}

// frameAllocPerByte is the frame layout's bound on what a frame that carries
// its gene columns can make the decoder allocate, per frame byte: a gene
// costs two frame bytes when its strings are empty and its float columns
// each one value, and 64 bytes decoded (frame.go).
const frameAllocPerByte = 40

// checkFrameDecode is the property FuzzPartialFrame holds UnmarshalBinary
// to on arbitrary bytes: no panic; a rejected frame leaves the target
// untouched; an accepted one has consistent columns, a footprint within a
// small multiple of the input, and re-encodes to an equivalent frame.
func checkFrameDecode(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	var p Partial
	if err := p.UnmarshalBinary(data); err != nil {
		if !reflect.DeepEqual(p, Partial{}) {
			t.Fatalf("rejected frame (%v) still wrote to the partial: %+v", err, p)
		}
		return false
	}
	if err := p.checkColumns(); err != nil {
		t.Fatalf("accepted frame decoded ragged: %v", err)
	}
	footprint := 16*(len(p.Query)+len(p.IDs)+len(p.Names)) + 32*len(p.IDs) + int(unsafe.Sizeof(PartialDataset{}))*len(p.Datasets)
	for _, col := range [][]string{p.Query, p.IDs, p.Names} {
		for _, s := range col {
			footprint += len(s)
		}
	}
	for _, d := range p.Datasets {
		footprint += len(d.Name)
	}
	if footprint > frameAllocPerByte*len(data) {
		t.Fatalf("a %d-byte frame decoded to %d bytes", len(data), footprint)
	}
	frame, err := p.MarshalBinary()
	if err != nil {
		t.Fatalf("decoded partial does not re-encode: %v", err)
	}
	var back Partial
	if err := back.UnmarshalBinary(frame); err != nil {
		t.Fatalf("re-encoded frame rejected: %v", err)
	}
	if !reflect.DeepEqual(partialBits(&back), partialBits(&p)) {
		t.Fatal("re-encoding changed the partial")
	}
	return true
}

// FuzzPartialFrame is the fuzz cover of every body that decodes as a
// spell.Partial: the parts of the shard answers a coordinator reads.
func FuzzPartialFrame(f *testing.F) {
	for _, b := range frameCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrameDecode(t, data) })
}

// TestPartialFrameRejectsMalformed runs the seed corpus as a plain test —
// exactly the valid-* seeds decode — and measures what a hostile length
// field can make the decoder allocate.
func TestPartialFrameRejectsMalformed(t *testing.T) {
	corpus := frameCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := corpus[name]
		valid := strings.HasPrefix(name, "valid-")
		if got := checkFrameDecode(t, data); got != valid {
			t.Errorf("%s: accepted = %v, want %v", name, got, valid)
		}
		// TotalAlloc is process-wide: the least of three decodes, because a
		// hostile length field allocates every time and a bystander — the
		// runtime, another test's leftover goroutine — does not.
		got := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var p Partial
			_ = p.UnmarshalBinary(data)
			runtime.ReadMemStats(&ms1)
			got = min(got, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		if limit := uint64(frameAllocPerByte*len(data) + 1024); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", name, len(data), got, limit)
		}
	}
}
