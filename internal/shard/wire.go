package shard

import (
	"forestview/internal/golem"
	"forestview/internal/spell"
)

// The shard wire protocol: Go-to-Go internal RPC, every body one gob message
// over HTTP POST. Gob over JSON because the payloads are float-heavy and
// NaN-bearing — a dataset that measures fewer than two query genes has NaN
// coherence, which JSON cannot represent at all (the daemon's public API
// papers over it with a custom marshaler) — and the golden-parity guarantee
// of the merged path needs every float64 bit-exact. The endpoints are
// internal (shard daemons are not meant to face the public), so Go-only
// encoding is not a constraint.
//
// The one large body, the search partial, is not left to gob's reflection:
// spell.Partial implements encoding.BinaryMarshaler as a columnar
// little-endian frame (spell/frame.go; layout and length checks in
// DESIGN.md §4), and gob carries those bytes verbatim inside the answer.
// Gob stays the envelope so that nothing here — call, the handlers — has a
// second code path for it. A frame the decoder rejects (another version,
// corruption) is a decode error like any other: the attempt fails and its
// groups fail over.
//
// One request names every ownership group the coordinator wants from that
// shard at that moment, and one answer serves them all: a search answer is
// one frame, the shard's one scan over the groups' datasets (plus a frame
// apiece for groups the shard holds only in part), an enrichment answer the
// list of the groups' slice tallies. A shard computes every answer from the
// request and its holdings and keeps nothing; the coordinator's cache of
// merged results is the fleet's only one.
//
// Paths are versioned: every endpoint lives under /api/shard/v1/. A
// coordinator only ever speaks one protocol version; a shard from another
// version 404s these paths, which the scatter's failover treats like any
// other per-shard failure — mixed-version fleets degrade, they don't get
// garbled merges. The same holds inside v1 across the change from one group
// and one bare partial per request to batches: a peer from before it sends a
// frame version (and lacks an answer envelope) that a peer from after it
// refuses to decode, and the other way round — and across EnrichAnswer's
// change from nested gob bytes to the tallies themselves.

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

// ContentType labels gob-encoded shard protocol bodies.
const ContentType = "application/x-gob"

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
// slice tallies in request order.
type EnrichAnswer struct {
	Slices []*golem.PartialCounts
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
