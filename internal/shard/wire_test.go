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
// to a body that decodes and re-encodes to the same bytes.
func checkBody[A any, PA answerBody[A]](t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	var a A
	if err := PA(&a).UnmarshalBinary(data); err != nil {
		if !reflect.DeepEqual(a, *new(A)) {
			t.Fatalf("rejected body (%v) still wrote to the answer: %+v", err, a)
		}
		return false
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
	return true
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
// and as a search answer whose gene columns are shared with earlier inputs'.
// The committed seeds say by name what must decode: search-* as a search
// answer only, enrich-* as an enrichment answer only, both-* as either,
// reject-* as neither; and none may make a decoder allocate more than a
// small multiple of its length.
func FuzzSearchAnswer(f *testing.F) {
	var genes spell.GeneColumns // shared by every input, as by one coordinator's answers
	f.Fuzz(func(t *testing.T, data []byte) {
		search := checkBody[SearchAnswer](t, data)
		enrich := checkBody[EnrichAnswer](t, data)
		var plain, shared SearchAnswer
		errPlain, errShared := plain.UnmarshalBinary(data), shared.unmarshal(data, &genes)
		if (errPlain == nil) != (errShared == nil) {
			t.Fatalf("decoding with shared gene columns: err %v, without: %v", errShared, errPlain)
		}
		if b1, _ := plain.AppendBinary(nil); errPlain == nil {
			if b2, _ := shared.AppendBinary(nil); !bytes.Equal(b1, b2) {
				t.Fatal("shared gene columns changed a decoded answer")
			}
		}
		name := path.Base(t.Name())
		want, named := map[string][2]bool{
			"search": {true, false}, "enrich": {false, true}, "both": {true, true}, "reject": {false, false},
		}[strings.SplitN(name, "-", 2)[0]]
		if !named {
			return
		}
		if got := [2]bool{search, enrich}; got != want {
			t.Errorf("%s decodes as (search, enrichment) %v, want %v", name, got, want)
		}
		limit := uint64(16*len(data) + 1024)
		if got := max(decodeAllocs[SearchAnswer](data), decodeAllocs[EnrichAnswer](data)); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", name, len(data), got, limit)
		}
	})
}

// catalogBody gives the term catalog's body codec the answerBody methods.
type catalogBody golem.TermCatalog

func (c *catalogBody) AppendBinary(b []byte) ([]byte, error) {
	return AppendCatalog(b, (*golem.TermCatalog)(c)), nil
}

func (c *catalogBody) UnmarshalBinary(data []byte) error {
	return UnmarshalCatalog((*golem.TermCatalog)(c), data)
}

// checkNamedBody holds a decoder to checkBody's contract and to allocating
// at most a small multiple of its input. A committed seed says by name
// whether it must decode: accept-* must, reject-* must not.
func checkNamedBody[A any, PA answerBody[A]](t *testing.T, data []byte) {
	accepted := checkBody[A, PA](t, data)
	name := path.Base(t.Name())
	if want, named := map[string]bool{"accept": true, "reject": false}[strings.SplitN(name, "-", 2)[0]]; named && accepted != want {
		t.Errorf("%s: decoded = %v, want %v", name, accepted, want)
	}
	if limit, got := uint64(16*len(data)+1024), decodeAllocs[A, PA](data); got > limit {
		t.Errorf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
}

// FuzzShardInfo is the fuzz cover of the info bodies a coordinator reads
// from every shard once a membership generation.
func FuzzShardInfo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkNamedBody[Info](t, data) })
}

// FuzzTermCatalog is the fuzz cover of the term catalog bodies a coordinator
// reads from a shard once a membership generation.
func FuzzTermCatalog(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkNamedBody[catalogBody](t, data) })
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
