package shard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"forestview/internal/golem"
	"forestview/internal/spell"
)

// Backend is how a coordinator reaches its members: one method per shard
// protocol endpoint, answers handed over by pointer. The default speaks the
// protocol over HTTP; a daemon that holds an engine is a coordinator over
// itself, through an in-process backend that encodes nothing. A member that
// does not serve a capability answers ErrUnsupported. A backend bounds its
// own calls (the HTTP one by Config.Deadline) and honors ctx.
type Backend interface {
	Search(ctx context.Context, shard string, req *SearchRequest) (*SearchAnswer, error)
	Enrich(ctx context.Context, shard string, req *EnrichRequest) (*EnrichAnswer, error)
	Info(ctx context.Context, shard string) (*Info, error)
	EnrichCatalog(ctx context.Context, shard string) (*golem.TermCatalog, error)
}

// httpBackend is the default Backend: the shard protocol over HTTP, a
// request body out and an answer body back (see wire.go).
type httpBackend struct {
	client   *http.Client
	resolve  func(string) string
	deadline time.Duration
	genes    spell.GeneColumns // the gene columns of the fleet's answers, decoded once
}

// Search names the gene column pairs the coordinator holds, and decodes the
// answer against what it held then.
func (b *httpBackend) Search(ctx context.Context, shard string, req *SearchRequest) (*SearchAnswer, error) {
	held := b.genes.Held()
	named := *req
	named.Genes = held.Digests()
	return call(ctx, b, shard, SearchPath, &named, func(a *SearchAnswer, body []byte) error { return a.UnmarshalShared(body, held) })
}

func (b *httpBackend) Enrich(ctx context.Context, shard string, req *EnrichRequest) (*EnrichAnswer, error) {
	return call(ctx, b, shard, EnrichPath, req, (*EnrichAnswer).UnmarshalBinary)
}

// requestBody is the body of a POST: a SearchRequest or an EnrichRequest.
type requestBody interface {
	AppendBinary([]byte) ([]byte, error)
}

func (b *httpBackend) Info(ctx context.Context, shard string) (*Info, error) {
	return call(ctx, b, shard, InfoPath, nil, (*Info).UnmarshalBinary)
}

func (b *httpBackend) EnrichCatalog(ctx context.Context, shard string) (*golem.TermCatalog, error) {
	return call(ctx, b, shard, EnrichCatalogPath, nil, (*golem.TermCatalog).UnmarshalBinary)
}

// maxBody bounds a shard answer the coordinator reads: 1 GiB, thousands of
// times a paper-scale answer, and still far inside the u32 lengths of its
// frames.
const maxBody = 1 << 30

// call performs one shard-protocol HTTP exchange, bounded by the attempt
// deadline: req's body POSTed to path (GET when req is nil), and a
// response body read whole into a pooled buffer and decoded as T. A body the
// decoder rejects is an ordinary failed attempt. Any non-200 status is an
// error carrying a bounded excerpt of the body; a 404 on the enrichment paths
// is ErrUnsupported (no ontology, or an older protocol version).
//
// Whatever the outcome, a bounded remainder of the body is read before it is
// closed: net/http only returns a connection to the idle pool once the body
// has been read to EOF, and closing short of it costs the next call to this
// shard a TCP handshake.
func call[T any](ctx context.Context, b *httpBackend, shard, path string, req requestBody, decode func(*T, []byte) error) (*T, error) {
	ctx, cancel := context.WithTimeout(ctx, b.deadline)
	defer cancel()
	method, body := http.MethodGet, io.Reader(nil)
	if req != nil {
		raw, err := req.AppendBinary(nil)
		if err != nil {
			return nil, err
		}
		method, body = http.MethodPost, bytes.NewReader(raw)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, b.resolve(shard)+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.CopyN(io.Discard, resp.Body, 64<<10) // best effort: a failure only costs the reuse
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound && strings.HasPrefix(path, EnrichPath) {
		return nil, ErrUnsupported
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("shard status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBody+1)); err != nil {
		return nil, fmt.Errorf("reading %s response: %w", path, err)
	}
	if buf.Len() > maxBody {
		return nil, fmt.Errorf("%s response over %d bytes", path, maxBody)
	}
	var out T
	if err := decode(&out, buf.Bytes()); err != nil {
		return nil, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return &out, nil
}

// bodies recycles call's response buffers: a search answer is one ≈96 KB
// frame at paper scale (two columns of 6,000 floats; the gene columns and
// the count columns cross as a digest and a value each), read per attempt.
// Nothing decoded keeps the bytes.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}
