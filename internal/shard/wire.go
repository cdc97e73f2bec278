package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"forestview/internal/golem"
	"forestview/internal/spell"
)

// The shard wire protocol: Go-to-Go internal RPC over HTTP, every body in
// both directions a binary layout of this package's own, opened by a magic
// and a version. The payloads are float-heavy and NaN-bearing — a dataset
// that measures fewer than two query genes has NaN coherence, which JSON
// cannot represent — and the merged path's golden parity needs every
// float64 bit-exact. The endpoints are internal, so Go-only bodies are no
// constraint.
//
// A search or enrichment answer is a body of parts, each a spell.Partial or
// golem.PartialCounts frame (layouts and length checks in spell/frame.go and
// golem/frame.go), written by AppendBinary and read by UnmarshalBinary:
//
//	magic+version  "FVSA", 0x01
//	part count     u32                                  8·count ≤ bytes left
//	each part      group count u32, that many group     every length ≤ bytes
//	               positions u32, frame length u32,      left; then no byte
//	               the frame                             may be left
//
// Requests, Info and the term catalog are bodies of strings (their layouts
// below). A body the decoder rejects — a peer that still speaks gob, a
// truncated body, a frame of another version — is a decode error like any
// other: a shard answers 400, and a coordinator's attempt fails and its
// groups fail over.
//
// One request names every ownership group the coordinator wants from that
// shard at that moment, and one answer serves them all: a search answer is
// one frame, the shard's one scan over the groups' datasets (plus a frame
// apiece for groups the shard holds only in part), an enrichment answer the
// groups' slice tallies. A shard computes every answer from the request and
// its holdings and keeps nothing; the coordinator's cache of merged results
// is the fleet's only one.
//
// Paths are versioned: every endpoint lives under /api/shard/v1/. A
// coordinator only ever speaks one protocol version; a shard from another
// version 404s these paths, which the scatter's failover treats like any
// other per-shard failure — mixed-version fleets degrade, they don't get
// garbled merges. The same holds inside v1 across each change of its bodies
// (bare partials to batches, gob to bodies): each side refuses what the
// other sends.

// SearchPath is the shard-role endpoint serving spell partials.
const SearchPath = "/api/shard/v1/search"

// InfoPath is the shard-role endpoint describing the shard's slice.
const InfoPath = "/api/shard/v1/info"

// EnrichPath is the shard-role endpoint serving golem partial counts: the
// per-term tallies of one background slice (see golem.PartialAnalyze).
const EnrichPath = "/api/shard/v1/enrich"

// EnrichCatalogPath serves the shard enricher's term catalog
// (golem.TermCatalog) — the static term list the coordinator merges
// partial counts against, fetched once per membership generation.
const EnrichCatalogPath = "/api/shard/v1/enrich/catalog"

// DrainPath is the token-gated shard-role admin endpoint that flips the
// shard into the draining state: the shard advertises it (Info.Status), acks,
// and signals the daemon to exit; in-flight and late partials are served
// until the daemon's graceful shutdown ends.
const DrainPath = "/api/shard/v1/admin/drain"

// ShardFleetPath is the token-gated shard-role admin endpoint that
// replaces the shard's membership view wholesale (JSON {"shards": [...],
// "replication": N}): the shard re-derives its owned top-R slice from the
// new list, loads any newly owned datasets, and swaps engines atomically.
// GET returns the current view.
const ShardFleetPath = "/api/shard/v1/admin/fleet"

// AnswerContentType labels every body a shard answers with.
const AnswerContentType = "application/x-forestview-answer"

// Capability names a shard-role feature advertised in Info.Capabilities.
const (
	// CapabilitySearch: the shard serves SearchPath.
	CapabilitySearch = "search"
	// CapabilityEnrich: the shard booted with an ontology and serves
	// EnrichPath/EnrichCatalogPath.
	CapabilityEnrich = "enrich"
)

// SearchRequest asks a shard for its partial of one query. Result-shaping
// options stay coordinator-side (spell.Merge applies them); the shard only
// needs the gene list, the ownership groups and which accumulator pair to
// carry.
type SearchRequest struct {
	Query []string

	// Shards, Replication and Groups scope the request to ownership groups
	// of the replicated fleet (DESIGN.md §5): each entry of Groups is one
	// group's ordered owner tuple, as Groups(allDatasetIDs, Shards,
	// Replication) derives them, and the shard serves the datasets it holds
	// of each — so the coordinator can ask different replicas for different
	// groups without any dataset being claimed twice in one merge. A tuple
	// that is not a group of the catalog, or named twice, is refused (422).
	// No Groups is the whole-slice probe: the shard serves everything it
	// holds (direct probes and warm-up).
	Shards      []string
	Replication int
	Groups      [][]string

	// Uniform asks for the uniform accumulator pair (spell.Partial.Uniform):
	// set for the UniformWeights ablation and on the second round of a query
	// whose merged coherences all clamp to zero.
	Uniform bool
}

// SearchAnswer is a shard's reply to a SearchRequest. In the common case it
// is one part: one scan over the datasets of every requested group, each of
// which the shard holds completely. A group the shard holds only in part
// (membership drift) rides as a part of its own, so the coordinator can weigh
// it against other replicas' answers for that group alone. The whole-slice
// probe is answered with one part naming no groups.
type SearchAnswer struct {
	Parts []SearchPart
}

// SearchPart is one frame of a SearchAnswer and the groups it covers, as
// positions in the request's Groups. A part covering several groups covers
// each of them completely.
type SearchPart struct {
	Groups  []int
	Partial *spell.Partial
}

// EnrichRequest asks a shard for background slices' enrichment tallies.
// Analysis options (MinSelected, MaxPValue) stay coordinator-side —
// golem.MergeCounts applies them to the summed globals.
//
// The slices are named indirectly, by ownership group: the shard derives
// Groups(bootCatalog, Shards, Replication), finds each requested tuple in
// it, and serves background slice gi of G where gi is the group's position
// and G the group count. Unlike search a slice does not depend on which
// datasets the shard holds, so *any* shard with an enricher can serve *any*
// slice: failover and the scavenge pass work across the whole fleet, and a
// single ontology-less shard costs coverage only if nobody else is
// reachable. Tuples are validated as for search; no Groups is the direct
// probe, the whole universe as slice 0 of 1.
type EnrichRequest struct {
	Selection []string

	Shards      []string
	Replication int
	Groups      [][]string
}

// EnrichAnswer is a shard's reply to an EnrichRequest: the requested groups'
// slice tallies in request order, one part each, naming no groups.
type EnrichAnswer struct {
	Slices []*golem.PartialCounts
}

// answerHead opens every answer body: its magic and version 1.
const answerHead = "FVSA\x01"

// AppendBinary appends a's answer body to b.
func (a *SearchAnswer) AppendBinary(b []byte) ([]byte, error) {
	return a.AppendFrames(b, func(b []byte, p *spell.Partial) ([]byte, error) { return p.AppendBinary(b) })
}

// AppendFrames appends a's answer body to b, each part's partial appended by
// frame: p.AppendBinary, or the Engine.AppendPartial of the engine that
// scanned it.
func (a *SearchAnswer) AppendFrames(b []byte, frame func([]byte, *spell.Partial) ([]byte, error)) ([]byte, error) {
	return appendBody(b, len(a.Parts), func(i int) []int { return a.Parts[i].Groups },
		func(b []byte, i int) ([]byte, error) { return frame(b, a.Parts[i].Partial) })
}

// UnmarshalBinary decodes an answer body into a, replacing its contents. A
// body it rejects leaves a untouched; it never panics, and it allocates at
// most a small multiple of len(data), which it does not retain.
func (a *SearchAnswer) UnmarshalBinary(data []byte) error { return a.unmarshal(data, nil) }

// unmarshal is UnmarshalBinary, the partials' gene columns shared through
// genes (spell.Partial.UnmarshalShared).
func (a *SearchAnswer) unmarshal(data []byte, genes *spell.GeneColumns) error {
	var parts []SearchPart
	err := readBody(data, func(groups []int, frame []byte) error {
		p := new(spell.Partial)
		parts = append(parts, SearchPart{Groups: groups, Partial: p})
		return p.UnmarshalShared(frame, genes)
	})
	if err == nil {
		a.Parts = parts
	}
	return err
}

// AppendBinary appends a's answer body to b.
func (a *EnrichAnswer) AppendBinary(b []byte) ([]byte, error) {
	return appendBody(b, len(a.Slices), func(int) []int { return nil },
		func(b []byte, i int) ([]byte, error) { return a.Slices[i].AppendBinary(b) })
}

// UnmarshalBinary decodes an answer body into a, with SearchAnswer's
// contract.
func (a *EnrichAnswer) UnmarshalBinary(data []byte) error {
	var slices []*golem.PartialCounts
	err := readBody(data, func(groups []int, frame []byte) error {
		if groups != nil {
			return errors.New("an enrichment slice names groups")
		}
		p := new(golem.PartialCounts)
		slices = append(slices, p)
		return p.UnmarshalBinary(frame)
	})
	if err == nil {
		a.Slices = slices
	}
	return err
}

// appendBody appends an answer body of n parts, part i naming groups(i) and
// carrying the frame that frame(b, i) appends.
func appendBody(b []byte, n int, groups func(int) []int, frame func([]byte, int) ([]byte, error)) ([]byte, error) {
	le := binary.LittleEndian
	b = le.AppendUint32(append(b, answerHead...), uint32(n))
	for i := range n {
		gs := groups(i)
		b = le.AppendUint32(b, uint32(len(gs)))
		for _, g := range gs {
			b = le.AppendUint32(b, uint32(g))
		}
		at := len(b)
		var err error
		if b, err = frame(le.AppendUint32(b, 0), i); err != nil {
			return nil, err
		}
		if uint64(len(b)-at-4) > math.MaxUint32 {
			return nil, errors.New("shard: an answer frame exceeds 4 GiB")
		}
		le.PutUint32(b[at:], uint32(len(b)-at-4))
	}
	return b, nil
}

// readBody checks an answer body's framing and hands each part's groups (nil
// for none) and frame, a sub-slice of data, to part, in order.
func readBody(data []byte, part func(groups []int, frame []byte) error) error {
	r, ok := bytes.CutPrefix(data, []byte(answerHead))
	if !ok || len(r) < 4 {
		return errors.New("shard: not an answer body of version 1")
	}
	u32 := func() uint64 {
		v := binary.LittleEndian.Uint32(r)
		r = r[4:]
		return uint64(v)
	}
	// Every part takes at least 8 bytes and every group position 4, checked
	// before anything is sized by them.
	n := u32()
	if 8*n > uint64(len(r)) {
		return fmt.Errorf("shard: answer body claims %d parts in %d bytes", n, len(r))
	}
	for i := range n {
		if len(r) < 8 {
			return fmt.Errorf("shard: answer body truncated in part %d", i)
		}
		ng := u32()
		if 4*ng+4 > uint64(len(r)) {
			return fmt.Errorf("shard: answer part %d claims %d groups in %d bytes", i, ng, len(r))
		}
		var groups []int
		if ng > 0 {
			groups = make([]int, ng)
		}
		for j := range groups {
			groups[j] = int(u32())
		}
		fl := u32()
		if fl > uint64(len(r)) {
			return fmt.Errorf("shard: answer part %d claims a %d-byte frame in %d bytes", i, fl, len(r))
		}
		if err := part(groups, r[:fl]); err != nil {
			return fmt.Errorf("shard: answer part %d: %w", i, err)
		}
		r = r[fl:]
	}
	if len(r) != 0 {
		return fmt.Errorf("shard: %d trailing bytes after the answer body", len(r))
	}
	return nil
}

// Info describes a shard's slice of the compendium, served at InfoPath.
type Info struct {
	// GeneIDs lists the distinct gene IDs of the slice in stable order.
	// The coordinator unions these across shards to report compendium
	// totals (shards overlap in genes, so counts cannot simply be summed).
	GeneIDs []string
	// DatasetIDs lists the global dataset names the shard holds. Under
	// replication slices overlap, so the coordinator counts the union of
	// these.
	DatasetIDs []string
	// AllDatasetIDs is the full compendium dataset list the shard booted
	// with, in global order. The coordinator fetches it from any one live
	// shard as the catalog it derives ownership groups from — the
	// coordinator itself stays dataset-stateless across restarts and
	// membership changes.
	AllDatasetIDs []string
	// Capabilities lists what the shard serves (CapabilitySearch,
	// CapabilityEnrich). A shard without an ontology omits "enrich"; the
	// coordinator discloses the gap instead of discovering it by 404.
	Capabilities []string
	// Status is the shard's lifecycle state (StatusActive or
	// StatusDraining; empty from pre-drain shards means active). A
	// coordinator that sees StatusDraining demotes the shard to
	// last-resort replica ordering.
	Status string
}

// Shard lifecycle states advertised in Info.Status.
const (
	StatusActive   = "active"
	StatusDraining = "draining"
)

// Requests, Info and the term catalog are bodies of strings, each a u32
// length and its bytes, after the body's magic and version; a list is a u32
// count and that many strings:
//
//	search    "FVSR", 0x01; Query and Shards, each a list; Replication u32;
//	          a u32 tuple count and each tuple a list; Uniform, a byte 0 or 1
//	enrich    "FVSE", 0x01; Selection, Shards, Replication and the tuples,
//	          as a search request's
//	Info      "FVSI", 0x01; GeneIDs, DatasetIDs, AllDatasetIDs and
//	          Capabilities, each a list; Status
//	catalog   "FVSC", 0x01; Fingerprint u64, BackgroundSize i64; a u32 term
//	          count and each term's ID and Name
//
// Every count and length is checked against the bytes left before anything
// is sized by it, so a body cannot make the decoder allocate more than a
// small multiple of its length; gob cannot promise that (a 161-byte gob
// request can claim a 10 MiB slice).
const (
	searchHead  = "FVSR\x01"
	enrichHead  = "FVSE\x01"
	infoHead    = "FVSI\x01"
	catalogHead = "FVSC\x01"
)

// AppendBinary appends q's body to b.
func (q *SearchRequest) AppendBinary(b []byte) ([]byte, error) {
	b = appendRequest(append(b, searchHead...), q.Query, q.Shards, q.Replication, q.Groups)
	if q.Uniform {
		return append(b, 1), nil
	}
	return append(b, 0), nil
}

// UnmarshalBinary decodes a body into q, replacing its contents, with
// SearchAnswer's contract.
func (q *SearchRequest) UnmarshalBinary(data []byte) error {
	r := stringReader{data}
	var out SearchRequest
	out.Query, out.Shards, out.Replication, out.Groups = r.request(searchHead)
	out.Uniform = r.flag()
	if err := r.done("search request"); err != nil {
		return err
	}
	*q = out
	return nil
}

// AppendBinary appends q's body to b.
func (q *EnrichRequest) AppendBinary(b []byte) ([]byte, error) {
	return appendRequest(append(b, enrichHead...), q.Selection, q.Shards, q.Replication, q.Groups), nil
}

// UnmarshalBinary decodes a body into q, replacing its contents, with
// SearchAnswer's contract.
func (q *EnrichRequest) UnmarshalBinary(data []byte) error {
	r := stringReader{data}
	var out EnrichRequest
	out.Selection, out.Shards, out.Replication, out.Groups = r.request(enrichHead)
	if err := r.done("enrichment request"); err != nil {
		return err
	}
	*q = out
	return nil
}

// appendRequest appends the fields both requests share.
func appendRequest(b []byte, genes, shards []string, repl int, groups [][]string) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(appendStrings(appendStrings(b, genes), shards), uint32(repl))
	b = le.AppendUint32(b, uint32(len(groups)))
	for _, g := range groups {
		b = appendStrings(b, g)
	}
	return b
}

// AppendBinary appends i's body to b.
func (i *Info) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, infoHead...)
	for _, col := range [][]string{i.GeneIDs, i.DatasetIDs, i.AllDatasetIDs, i.Capabilities} {
		b = appendStrings(b, col)
	}
	return appendString(b, i.Status), nil
}

// UnmarshalBinary decodes a body into i, replacing its contents, with
// SearchAnswer's contract.
func (i *Info) UnmarshalBinary(data []byte) error {
	r := stringReader{data}
	if !r.head(infoHead) {
		return errors.New("shard: not an info body of version 1")
	}
	var out Info
	for _, col := range []*[]string{&out.GeneIDs, &out.DatasetIDs, &out.AllDatasetIDs, &out.Capabilities} {
		*col = r.strings(1)
	}
	out.Status = r.string()
	if err := r.done("info"); err != nil {
		return err
	}
	*i = out
	return nil
}

// AppendCatalog appends c's body to b.
func AppendCatalog(b []byte, c *golem.TermCatalog) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(append(b, catalogHead...), c.Fingerprint)
	b = le.AppendUint32(le.AppendUint64(b, uint64(int64(c.BackgroundSize))), uint32(len(c.Terms)))
	for _, t := range c.Terms {
		b = appendString(appendString(b, t.ID), t.Name)
	}
	return b
}

// UnmarshalCatalog decodes a body into c, replacing its contents, with
// SearchAnswer's contract.
func UnmarshalCatalog(c *golem.TermCatalog, data []byte) error {
	r := stringReader{data}
	if !r.head(catalogHead) || len(r.b) < 16 {
		return errors.New("shard: not a catalog body of version 1")
	}
	le := binary.LittleEndian
	out := golem.TermCatalog{Fingerprint: le.Uint64(r.b), BackgroundSize: int(int64(le.Uint64(r.b[8:])))}
	r.b = r.b[16:]
	ids := r.strings(2) // an ID and a Name a term
	out.Terms = make([]golem.TermInfo, len(ids)/2)
	for t := range out.Terms {
		out.Terms[t] = golem.TermInfo{ID: ids[2*t], Name: ids[2*t+1]}
	}
	if err := r.done("catalog"); err != nil {
		return err
	}
	*c = out
	return nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

// appendStrings appends a list: its u32 count and its strings.
func appendStrings(b []byte, ss []string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// stringReader reads a body of strings. The first malformed length empties
// it and marks it bad, and every later read returns zero values.
type stringReader struct{ b []byte }

func (r *stringReader) head(h string) bool {
	var ok bool
	r.b, ok = bytes.CutPrefix(r.b, []byte(h))
	return ok
}

func (r *stringReader) u32() uint64 {
	if len(r.b) < 4 {
		r.b = nil
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return uint64(v)
}

func (r *stringReader) string() string {
	n := r.u32()
	if r.b == nil || n > uint64(len(r.b)) {
		r.b = nil
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// strings reads a u32 count of groups of per strings, and the strings: nil
// for none.
func (r *stringReader) strings(per uint64) []string {
	n := r.u32() * per
	if n == 0 || 4*n > uint64(len(r.b)) { // every string takes 4 bytes at least
		if n != 0 {
			r.b = nil
		}
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

// request reads the head and the fields both requests share: the genes, the
// fleet, the replication (a u32 holding an int32) and the owner tuples, nil
// for none. Another head marks the body bad.
func (r *stringReader) request(head string) (genes, shards []string, repl int, groups [][]string) {
	if !r.head(head) {
		r.b = nil
	}
	genes, shards = r.strings(1), r.strings(1)
	repl = int(int32(r.u32()))
	n := r.u32()
	if n == 0 || 4*n > uint64(len(r.b)) { // every tuple takes 4 bytes at least
		if n != 0 {
			r.b = nil
		}
		return genes, shards, repl, nil
	}
	groups = make([][]string, n)
	for i := range groups {
		groups[i] = r.strings(1)
	}
	return genes, shards, repl, groups
}

// flag reads a byte that must be 0 or 1.
func (r *stringReader) flag() bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.b = nil
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

func (r *stringReader) done(what string) error {
	switch {
	case r.b == nil:
		return fmt.Errorf("shard: a malformed %s body", what)
	case len(r.b) != 0:
		return fmt.Errorf("shard: %d trailing bytes after the %s body", len(r.b), what)
	}
	return nil
}
