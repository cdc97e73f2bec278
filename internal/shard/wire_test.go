package shard

import (
	"bytes"
	"math"
	"path"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"forestview/internal/golem"
	"forestview/internal/spell"
)

// answerBody is what a shard's answer body decodes into.
type answerBody[A any] interface {
	*A
	AppendBinary([]byte) ([]byte, error)
	UnmarshalBinary([]byte) error
}

// checkBody is the contract FuzzSearchAnswer holds an answer decoder to: a
// body it rejects leaves the target untouched, and one it accepts re-encodes
// to a body that decodes and re-encodes to the same bytes. It returns that
// body, nil for a rejected one.
func checkBody[A any, PA answerBody[A]](t *testing.T, data []byte) (body []byte) {
	t.Helper()
	var a A
	if err := PA(&a).UnmarshalBinary(data); err != nil {
		if !reflect.DeepEqual(a, *new(A)) {
			t.Fatalf("rejected body (%v) still wrote to the answer: %+v", err, a)
		}
		return nil
	}
	body, err := PA(&a).AppendBinary(nil)
	if err != nil {
		t.Fatalf("decoded answer does not re-encode: %v", err)
	}
	var back A
	if err := PA(&back).UnmarshalBinary(body); err != nil {
		t.Fatalf("re-encoded body rejected: %v", err)
	}
	if again, _ := PA(&back).AppendBinary(nil); !bytes.Equal(again, body) {
		t.Fatal("re-encoding changed the answer")
	}
	return body
}

// checkSeedEncodes holds a committed seed the decoder accepted (body, its
// re-encoding, not nil) to re-encoding to exactly its own bytes, which pins
// the encoder to the committed layout.
func checkSeedEncodes(t *testing.T, name string, data, body []byte) {
	t.Helper()
	if body != nil && !bytes.Equal(body, data) {
		t.Errorf("%s re-encodes to other bytes:\n got %q\nwant %q", name, body, data)
	}
}

// decodeAllocs is the least of three decodes' allocation: TotalAlloc is
// process-wide, and a hostile length field allocates every time where a
// bystander does not.
func decodeAllocs[A any, PA answerBody[A]](data []byte) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var a A
		_ = PA(&a).UnmarshalBinary(data)
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return least
}

// FuzzSearchAnswer is the fuzz cover of the answer bodies a coordinator
// reads: every input is decoded as a search answer and as an enrichment
// answer (the frames inside are FuzzPartialFrame's and FuzzPartialCounts'),
// and as a search answer whose gene columns are shared with earlier inputs'
// — which may also name a held pair by its digest: the seeds' pair (IDs A,
// Bb, Ccc) is held from the start. The committed seeds say by name what
// must decode: search-* as a search answer only, enrich-* as an enrichment
// answer only, both-* as either, held-* only against the held pair, reject-*
// as nothing; what decodes must re-encode to the seed's own bytes, and none
// may make a decoder allocate more than frame.go's bound: 40 bytes a body
// byte, and 32 a gene of a held pair the body names.
func FuzzSearchAnswer(f *testing.F) {
	var genes spell.GeneColumns // shared by every input, as by one coordinator's answers
	seedPair := spell.Partial{Query: []string{"A"}, IDs: []string{"A", "Bb", "Ccc"}, Names: []string{"a", "", "c-name"}}
	for k := range seedPair.Sums {
		seedPair.Sums[k] = make([]float64, len(seedPair.IDs))
	}
	frame, err := seedPair.MarshalBinary()
	if err == nil {
		err = new(spell.Partial).UnmarshalShared(frame, genes.Held())
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		search := checkBody[SearchAnswer](t, data)
		enrich := checkBody[EnrichAnswer](t, data)
		held := genes.Held()
		var plain, shared SearchAnswer
		errPlain, errShared := plain.UnmarshalBinary(data), shared.UnmarshalShared(data, held)
		if errPlain == nil && errShared != nil {
			t.Fatalf("decoding with shared gene columns: err %v, without: nil", errShared)
		}
		if errShared == nil {
			// An answer decoded against held pairs is one whose frames carry
			// them: it re-encodes to a body any reader decodes.
			b2, err := shared.AppendBinary(nil)
			var again SearchAnswer
			if err != nil || again.UnmarshalBinary(b2) != nil {
				t.Fatalf("an answer decoded against held gene columns does not re-encode (%v)", err)
			}
			if b1, _ := plain.AppendBinary(nil); errPlain == nil && !bytes.Equal(b1, b2) {
				t.Fatal("shared gene columns changed a decoded answer")
			}
			genes := 0
			for _, sp := range shared.Parts {
				genes += len(sp.Partial.IDs)
			}
			if limit, got := uint64(40*len(data)+32*genes+1024), sharedDecodeAllocs(data, held); got > limit {
				t.Errorf("decoding %d bytes naming %d genes allocated %d (limit %d)", len(data), genes, got, limit)
			}
		}
		name := path.Base(t.Name())
		want, named := map[string][2]bool{
			"search": {true, false}, "enrich": {false, true}, "both": {true, true}, "held": {false, false}, "reject": {false, false},
		}[strings.SplitN(name, "-", 2)[0]]
		if !named {
			return
		}
		if held := strings.HasPrefix(name, "held-"); held != (errShared == nil && errPlain != nil) {
			t.Errorf("%s decodes against the held pair: %v, without it: %v", name, errShared, errPlain)
		}
		if got := [2]bool{search != nil, enrich != nil}; got != want {
			t.Errorf("%s decodes as (search, enrichment) %v, want %v", name, got, want)
		}
		checkSeedEncodes(t, name, data, search)
		checkSeedEncodes(t, name, data, enrich)
		limit := uint64(40*len(data) + 1024)
		if got := max(decodeAllocs[SearchAnswer](data), decodeAllocs[EnrichAnswer](data)); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", name, len(data), got, limit)
		}
	})
}

// checkNamedBody holds a decoder to checkBody's contract and to allocating
// at most a small multiple of its input. A committed seed says by name
// whether it must decode: accept-* must, and must re-encode to its own
// bytes; reject-* must not.
func checkNamedBody[A any, PA answerBody[A]](t *testing.T, data []byte) {
	body := checkBody[A, PA](t, data)
	name := path.Base(t.Name())
	if want, named := map[string]bool{"accept": true, "reject": false}[strings.SplitN(name, "-", 2)[0]]; named {
		if accepted := body != nil; accepted != want {
			t.Errorf("%s: decoded = %v, want %v", name, accepted, want)
		}
		checkSeedEncodes(t, name, data, body)
	}
	if limit, got := uint64(16*len(data)+1024), decodeAllocs[A, PA](data); got > limit {
		t.Errorf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
}

// sharedDecodeAllocs is decodeAllocs for a search answer decoded against
// held gene columns.
func sharedDecodeAllocs(data []byte, held *spell.HeldGenes) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var a SearchAnswer
		_ = a.UnmarshalShared(data, held)
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	return least
}

// FuzzShardInfo is the fuzz cover of the info bodies a coordinator reads
// from every shard once a membership generation.
func FuzzShardInfo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkNamedBody[Info](t, data) })
}

// FuzzTermCatalog is the fuzz cover of the term catalog bodies a coordinator
// reads from a shard once a membership generation.
func FuzzTermCatalog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkNamedBody[golem.TermCatalog](t, data) })
}

// requestBodies decodes a body as the request its head names.
type requestBodies struct {
	Search *SearchRequest
	Enrich *EnrichRequest
}

func (q *requestBodies) AppendBinary(b []byte) ([]byte, error) {
	if q.Search != nil {
		return q.Search.AppendBinary(b)
	}
	return q.Enrich.AppendBinary(b)
}

func (q *requestBodies) UnmarshalBinary(data []byte) error {
	var search SearchRequest
	var enrich EnrichRequest
	if err := search.UnmarshalBinary(data); err == nil {
		q.Search = &search
		return nil
	}
	err := enrich.UnmarshalBinary(data)
	if err == nil {
		q.Enrich = &enrich
	}
	return err
}

// FuzzShardRequest is the fuzz cover of the request bodies a shard reads from
// any peer, search and enrichment alike. The committed seeds hold counts and
// lengths past the body's end, and gob bodies of the protocol before this
// one: a 161-byte one claims 15.7M strings.
func FuzzShardRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkNamedBody[requestBodies](t, data) })
}
