package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"forestview/internal/golem"
	"forestview/internal/spell"
	"forestview/internal/wire"
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
//	head           "FVSA", 0x01
//	part count     u32                                  8·count ≤ bytes left
//	each part      group count u32, that many group     every length ≤ bytes
//	               positions u32, frame length u32,      left; then no byte
//	               the frame                             may be left
//
// Requests and Info (layouts below) and the term catalog (golem/frame.go)
// are bodies of strings; internal/wire reads every body. A body the decoder
// rejects — a peer that still speaks gob, a truncated body, a frame of
// another version — is a decode error like any other: a shard answers 400,
// and a coordinator's attempt fails and its groups fail over.
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

	// Genes names the gene column pairs the coordinator holds
	// (spell.GeneColumns): a frame whose pair is one of them names it by
	// digest instead of carrying it.
	Genes []spell.GenesDigest
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
func (a *SearchAnswer) UnmarshalBinary(data []byte) error { return a.UnmarshalShared(data, nil) }

// UnmarshalShared is UnmarshalBinary, the partials' gene columns shared
// through held (spell.Partial.UnmarshalShared): what a coordinator held when
// it named its gene pairs in the request. The partials' accumulator columns
// are pooled; their owner releases them (Release).
func (a *SearchAnswer) UnmarshalShared(data []byte, held *spell.HeldGenes) error {
	var parts []SearchPart
	err := readBody(data, func(groups []int, frame []byte) error {
		p := new(spell.Partial)
		parts = append(parts, SearchPart{Groups: groups, Partial: p})
		return p.UnmarshalShared(frame, held)
	})
	if err == nil {
		a.Parts = parts
		return nil
	}
	(&SearchAnswer{Parts: parts}).Release()
	return err
}

// Release hands every part's accumulator columns back to their pool
// (spell.Partial.Release): the answer's owner calls it once nothing reads
// them.
func (a *SearchAnswer) Release() {
	for _, sp := range a.Parts {
		if sp.Partial != nil {
			sp.Partial.Release()
		}
	}
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
	r := wire.Open(data, "shard: answer body", answerHead)
	// Every part takes at least 8 bytes and every group position 4, checked
	// before anything is sized by them.
	n := uint64(r.U32())
	if !r.Need(8 * n) {
		return r.Close()
	}
	for i := range n {
		ng := uint64(r.U32())
		if !r.Need(4*ng + 4) {
			return r.Close()
		}
		var groups []int
		if ng > 0 {
			groups = make([]int, ng)
		}
		for j := range groups {
			groups[j] = int(r.U32())
		}
		frame := r.Take(uint64(r.U32()))
		if err := r.Err(); err != nil {
			return err
		}
		if err := part(groups, frame); err != nil {
			return fmt.Errorf("shard: answer part %d: %w", i, err)
		}
	}
	return r.Close()
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
	// StatusDraining; empty from pre-drain shards means active), reported
	// for operators as /api/stats reports it. No coordinator reads it: a
	// shard is demoted in replica ordering only by the fleet admin's
	// "drain" action (Coordinator.SetDraining).
	Status string
}

// Shard lifecycle states advertised in Info.Status.
const (
	StatusActive   = "active"
	StatusDraining = "draining"
)

// Requests and Info are bodies of internal/wire's u32 strings and lists,
// after the body's head:
//
//	search    "FVSR", 0x03; Query and Shards, each a list; Replication u32;
//	          a u32 tuple count and each tuple a list; Uniform, a byte 0 or 1;
//	          a u32 count of Genes digests and the digests, 32 bytes each
//	enrich    "FVSE", 0x01; Selection, Shards, Replication and the tuples,
//	          as a search request's
//	Info      "FVSI", 0x01; GeneIDs, DatasetIDs, AllDatasetIDs and
//	          Capabilities, each a list; Status
//
// Every count is checked against the bytes left before anything is sized by
// it; gob cannot promise that (a 161-byte gob request can claim a 10 MiB
// slice).
const (
	answerHead = "FVSA\x01"
	searchHead = "FVSR\x03"
	enrichHead = "FVSE\x01"
	infoHead   = "FVSI\x01"
)

// AppendBinary appends q's body to b.
func (q *SearchRequest) AppendBinary(b []byte) ([]byte, error) {
	b = appendRequest(append(b, searchHead...), q.Query, q.Shards, q.Replication, q.Groups)
	uniform := byte(0)
	if q.Uniform {
		uniform = 1
	}
	b = binary.LittleEndian.AppendUint32(append(b, uniform), uint32(len(q.Genes)))
	for _, d := range q.Genes {
		b = append(b, d[:]...)
	}
	return b, nil
}

// UnmarshalBinary decodes a body into q, replacing its contents, with
// SearchAnswer's contract.
func (q *SearchRequest) UnmarshalBinary(data []byte) error {
	r := wire.Open(data, "shard: search request", searchHead)
	var out SearchRequest
	out.Query, out.Shards, out.Replication, out.Groups = readShared(&r)
	out.Uniform = r.Byte(1) == 1
	if n := uint64(r.U32()); n > 0 && r.Need(uint64(len(spell.GenesDigest{}))*n) {
		out.Genes = make([]spell.GenesDigest, n)
		for i := range out.Genes {
			out.Genes[i] = spell.GenesDigest(r.Take(uint64(len(out.Genes[i]))))
		}
	}
	if err := r.Close(); err != nil {
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
	r := wire.Open(data, "shard: enrichment request", enrichHead)
	var out EnrichRequest
	out.Selection, out.Shards, out.Replication, out.Groups = readShared(&r)
	if err := r.Close(); err != nil {
		return err
	}
	*q = out
	return nil
}

// appendRequest appends the fields both requests share.
func appendRequest(b []byte, genes, shards []string, repl int, groups [][]string) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(wire.AppendStrings(wire.AppendStrings(b, genes), shards), uint32(repl))
	b = le.AppendUint32(b, uint32(len(groups)))
	for _, g := range groups {
		b = wire.AppendStrings(b, g)
	}
	return b
}

// readShared reads the fields both requests share: the genes, the fleet,
// the replication (a u32 holding an int32) and the owner tuples, nil for
// none.
func readShared(r *wire.Reader) (genes, shards []string, repl int, groups [][]string) {
	genes, shards = r.Strings(1), r.Strings(1)
	repl = int(int32(r.U32()))
	n := uint64(r.U32())
	if n == 0 || !r.Need(4*n) { // every tuple takes 4 bytes at least
		return genes, shards, repl, nil
	}
	groups = make([][]string, n)
	for i := range groups {
		groups[i] = r.Strings(1)
	}
	return genes, shards, repl, groups
}

// AppendBinary appends i's body to b.
func (i *Info) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, infoHead...)
	for _, col := range [][]string{i.GeneIDs, i.DatasetIDs, i.AllDatasetIDs, i.Capabilities} {
		b = wire.AppendStrings(b, col)
	}
	return wire.AppendString(b, i.Status), nil
}

// UnmarshalBinary decodes a body into i, replacing its contents, with
// SearchAnswer's contract.
func (i *Info) UnmarshalBinary(data []byte) error {
	r := wire.Open(data, "shard: info body", infoHead)
	var out Info
	for _, col := range []*[]string{&out.GeneIDs, &out.DatasetIDs, &out.AllDatasetIDs, &out.Capabilities} {
		*col = r.Strings(1)
	}
	out.Status = r.String()
	if err := r.Close(); err != nil {
		return err
	}
	*i = out
	return nil
}
