package spell

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestDatasetRankMarshalNaNCoherence: an undefined coherence (the dataset
// measures fewer than two query genes) must encode as null — NaN is not
// representable in JSON and used to abort the encoder mid-response on every
// HTTP entry point.
func TestDatasetRankMarshalNaNCoherence(t *testing.T) {
	ranks := []DatasetRank{
		{Index: 1, Name: "ok", Weight: 0.5, QueryCoherence: 1.25, QueryPresent: 3},
		{Index: 2, Name: "undef", Weight: 0, QueryCoherence: math.NaN(), QueryPresent: 1},
	}
	b, err := json.Marshal(ranks)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	s := string(b)
	if !strings.Contains(s, `"QueryCoherence":null`) {
		t.Fatalf("NaN coherence not null: %s", s)
	}
	if !strings.Contains(s, `"QueryCoherence":1.25`) {
		t.Fatalf("defined coherence mangled: %s", s)
	}
	// Round trip: null leaves the zero value, everything else survives.
	var back []DatasetRank
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back[0].QueryCoherence != 1.25 || back[0].Name != "ok" || back[0].QueryPresent != 3 {
		t.Fatalf("round trip: %+v", back[0])
	}
	if back[1].QueryCoherence != 0 || back[1].Index != 2 {
		t.Fatalf("round trip of null: %+v", back[1])
	}
}

// oldRank is a DatasetRank that marshals as DatasetRank did before it wrote
// its own bytes: encoding/json over the struct with QueryCoherence a
// pointer, nil for NaN.
type oldRank DatasetRank

func (d oldRank) MarshalJSON() ([]byte, error) {
	type alias DatasetRank
	out := struct {
		alias
		QueryCoherence *float64
	}{alias: alias(d)}
	if !math.IsNaN(d.QueryCoherence) {
		out.QueryCoherence = &d.QueryCoherence
	}
	return json.Marshal(out)
}

// TestDatasetRankMarshalBytes: a search body is byte for byte what it was
// when every DatasetRank went through encoding/json — encoded the way the
// daemon encodes one, a Result through a json.Encoder — over weights and
// coherences of every magnitude json formats differently, a NaN coherence,
// negative and large indices, and names plain, escaped, HTML-escaped and
// not UTF-8; and a value json refuses is refused alike.
func TestDatasetRankMarshalBytes(t *testing.T) {
	floats := []float64{0, 1, -1, 0.5, 1.0 / 3, 1e-6, 9.99e-7, 1.5e-7, -2.5e-9, 1e-300, 1e20, 1e21, 3.2e22, -0.125, math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN()}
	names := []string{"", "synthetic-2 (nutrient-limitation)", `quote"d`, `back\slash`, "<b>&amp;</b>", "tab\there", "café", "\xff\xfe", "line\u2028sep"}
	var res Result
	var old struct {
		Query    []string
		Datasets []oldRank
		Genes    []GeneRank
	}
	res.Query, old.Query = []string{"YAL001C"}, []string{"YAL001C"}
	res.Genes = []GeneRank{{ID: "YAL001C", Name: "TFC3", Score: 0.25, IsQuery: true}}
	old.Genes = res.Genes
	for i, w := range floats {
		if math.IsNaN(w) {
			continue
		}
		for j, c := range floats {
			d := DatasetRank{Index: i*1000 - j, Name: names[(i+j)%len(names)], Weight: w, QueryCoherence: c, QueryPresent: j}
			res.Datasets, old.Datasets = append(res.Datasets, d), append(old.Datasets, oldRank(d))
		}
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got, want := encode(&res), encode(&old); !bytes.Equal(got, want) {
		t.Fatalf("the body moved:\n got %s\nwant %s", got, want)
	}
	for _, d := range []DatasetRank{{Weight: math.NaN()}, {Weight: math.Inf(1)}, {QueryCoherence: math.Inf(-1)}} {
		if _, err := json.Marshal(d); err == nil {
			t.Fatalf("%+v marshals: json refuses it", d)
		}
	}
}
