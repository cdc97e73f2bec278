package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"forestview/internal/shard"
)

// FuzzShardPartialRequest throws arbitrary bodies at the one decode-and-
// serve path behind /api/shard/v1/{search,enrich} (serveShardPartial): a
// hostile or version-skewed peer must not be able to panic a shard or
// balloon its answer. Whatever the bytes, the shard answers 200 or a 4xx —
// the only 5xx is the counted encode failure — and the response stays
// small. The seed corpus in testdata/fuzz holds valid gob requests for both
// endpoints over this fixture's catalog: ownerless, a real ownership group
// of a 3-shard R=2 fleet, an owner tuple the catalog never derives,
// replication 0 and beyond the fleet, an empty fleet, and a truncated
// body. The 10k-member fleet is seeded here, being too bulky to commit.
func FuzzShardPartialRequest(f *testing.F) {
	s, u := fixtureShard(f)
	genes := u.ModuleGeneIDs(2)[:4]
	big := make([]string, 10000)
	for i := range big {
		big[i] = fmt.Sprintf("shard-%d", i)
	}
	var sb, eb bytes.Buffer
	if err := gob.NewEncoder(&sb).Encode(shard.SearchRequest{Query: genes, Shards: big, Replication: 2, Owners: big[:2]}); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&eb).Encode(shard.EnrichRequest{Selection: genes, Shards: big, Replication: 2, Owners: big[:2]}); err != nil {
		f.Fatal(err)
	}
	f.Add(false, sb.Bytes())
	f.Add(true, eb.Bytes())
	f.Add(false, []byte("not gob"))

	f.Fuzz(func(t *testing.T, enrich bool, body []byte) {
		path := shard.SearchPath
		if enrich {
			path = shard.EnrichPath
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			// A panic inside the computation is recovered by the flight
			// group and would otherwise pass for a query error.
			if strings.Contains(rec.Body.String(), "panicked") {
				t.Fatalf("request panicked the compute path: %s", rec.Body.String())
			}
		default:
			if code, _ := errorEnvelopeOf(t, rec.Body.Bytes()); code != codeEncodeFailed {
				t.Fatalf("status %d (%s): %s", rec.Code, code, rec.Body.String())
			}
		}
		// A partial is bounded by the shard's own compendium, never by the
		// request: well under the 1 MiB a request body may carry.
		if rec.Body.Len() > 1<<20 {
			t.Fatalf("%d-byte response to a %d-byte request", rec.Body.Len(), len(body))
		}
	})
}
