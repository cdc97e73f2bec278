package shard

import (
	"context"
	"errors"
	"fmt"

	"forestview/internal/golem"
	"forestview/internal/spell"
)

// The distributed-enrichment scatter. Enrichment rides the same
// ownership-group machinery as search — batched per-shard requests, p2c
// replica selection, failover, scavenge — but with one structural
// difference: a group names a background *slice* (slice gi of G, where gi
// is the group's position in the Groups derivation), and slices don't
// depend on which datasets a shard holds, so any shard with an enricher
// can serve any slice. Failover and the scavenge pass therefore rescue
// coverage across the whole fleet, and a single ontology-less shard costs
// nothing while any capable shard is reachable.

// ErrNoEnrichment reports a fleet in which no reachable member offers
// enrichment (no member booted with an ontology — a single daemon's one
// member included — or every capable shard is down and the rest answered
// "unsupported"). The daemon maps it to a 503 no_ontology.
var ErrNoEnrichment = errors.New("shard: no reachable member offers enrichment (no ontology loaded)")

// ErrUnsupported marks a member that answers but does not serve the
// enrichment endpoints — no ontology, or an older protocol version.
var ErrUnsupported = errors.New("shard does not serve enrichment")

// EnrichResult is the merged outcome of an enrichment scatter.
type EnrichResult struct {
	// Results is the exact merged analysis (bit-identical to a
	// single-process Analyze when no group was lost).
	Results []golem.Enrichment
	// Background is the merged universe size: the full N on a clean
	// scatter, the covered total on a degraded one.
	Background int
	// InBackground maps each canonicalized selection gene to whether the
	// full universe knows it, taken from the partials' disclosure — the
	// coordinator needs no local enricher to report what was tested vs
	// ignored.
	InBackground map[string]bool
}

// EnrichCtx scatters one enrichment selection over the fleet's ownership
// groups (see scatter): group gi is asked for background slice gi of G,
// served by one of its R replicas with failover and scavenge exactly
// like SearchCtx, and a shard answers all the slices asked of it in one
// list. The slice tallies merge through golem.MergeCounts, so the result is
// exact, not approximate. Degraded means some slice was unreachable — the
// analysis is then over the covered background only. A selection none of
// the *reachable* slices hold returns ErrDegradedUnresolved when the
// universe is known to contain it, golem.ErrNoSelection when it does not.
func (c *Coordinator) EnrichCtx(ctx context.Context, selection []string, opt golem.Options) (*EnrichResult, Meta, error) {
	var ecat *golem.TermCatalog
	genes := spell.CanonicalQuery(selection)
	sc, err := scatter(ctx, c, genes, scatterOp[EnrichAnswer, golem.PartialCounts]{
		empty: "golem: empty selection",
		ask: func(ctx context.Context, shard string, genes, shards []string, r int, groups [][]string) (*EnrichAnswer, error) {
			return c.backend.Enrich(ctx, shard, &EnrichRequest{Selection: genes, Shards: shards, Replication: r, Groups: groups})
		},
		prepare: func(ctx context.Context, shards []string, gen uint64) (err error) {
			ecat, err = c.enrichCatalogFor(ctx, shards, gen)
			return err
		},
		// A slice answer is all-or-nothing. A partial from a
		// differently-built enricher, a shard that derived a different
		// partition or tallies the catalog cannot have produced must fail
		// over, not merge: exactness beats availability here.
		split: func(a *EnrichAnswer, req []int, cat *GroupTable) ([]part[golem.PartialCounts], error) {
			if len(a.Slices) != len(req) {
				return nil, fmt.Errorf("%d slices answer a request for %d", len(a.Slices), len(req))
			}
			parts := make([]part[golem.PartialCounts], len(req))
			for i, gi := range req {
				if err := checkCounts(a.Slices[i], gi, len(cat.Tuples), len(genes), ecat); err != nil {
					return nil, fmt.Errorf("slice %d: %w", gi, err)
				}
				parts[i] = part[golem.PartialCounts]{groups: []int{gi}, payload: a.Slices[i]}
			}
			return parts, nil
		},
	})
	if err != nil {
		return nil, sc.meta, err
	}
	merged, err := golem.MergeCounts(ecat, sc.parts, opt)
	if err != nil {
		if errors.Is(err, golem.ErrNoSelection) && sc.meta.Degraded && golem.SelectionKnown(sc.parts) {
			// The reachable slices hold none of the genes but the universe
			// does: the unreachable slices may carry them, so the honest
			// answer is "retry later", not "bad selection".
			err = sc.unresolved()
		}
		return nil, sc.meta, err
	}
	res := &EnrichResult{Results: merged, InBackground: make(map[string]bool, len(sc.genes))}
	for _, p := range sc.parts {
		res.Background += p.BackgroundSize
	}
	// Every partial discloses full-universe membership identically; any one
	// serves.
	for i, ok := range sc.parts[0].InBackground {
		res.InBackground[sc.genes[i]] = ok
	}
	return res, sc.meta, nil
}

// checkCounts holds one slice's tallies, as a shard sent them, to what slice
// gi of n over the catalog can be for a selection of nGenes: the merge indexes
// the selection by InBackground and sizes the log-factorial table by the
// summed BackgroundSize, so neither is taken on trust.
func checkCounts(p *golem.PartialCounts, gi, n, nGenes int, ecat *golem.TermCatalog) error {
	switch {
	case p.Fingerprint != ecat.Fingerprint:
		return fmt.Errorf("enricher fingerprint %016x, catalog has %016x", p.Fingerprint, ecat.Fingerprint)
	case p.Slices != n || p.Slice != gi:
		return fmt.Errorf("shard derived slice %d/%d, coordinator expects %d/%d", p.Slice, p.Slices, gi, n)
	case len(p.InBackground) != nGenes:
		return fmt.Errorf("%d membership flags for a selection of %d", len(p.InBackground), nGenes)
	case p.SelectionSize < 0 || p.SelectionSize > nGenes:
		return fmt.Errorf("selection size %d of %d genes", p.SelectionSize, nGenes)
	case p.BackgroundSize < 0 || p.BackgroundSize > ecat.BackgroundSize:
		return fmt.Errorf("background size %d of a universe of %d", p.BackgroundSize, ecat.BackgroundSize)
	case len(p.Selected) != len(ecat.Terms) || len(p.Background) != len(ecat.Terms):
		return fmt.Errorf("%d/%d term tallies, catalog has %d terms", len(p.Selected), len(p.Background), len(ecat.Terms))
	}
	for t := range p.Selected {
		if p.Selected[t] < 0 || p.Background[t] < 0 {
			return fmt.Errorf("negative tally for term %d", t)
		}
	}
	return nil
}

// enrichCatalogFor returns the fleet's term catalog for the given
// membership snapshot, fetching it from any capable shard on the first
// enrichment of a generation. A fleet in which every *reachable* shard
// answers "unsupported" is ErrNoEnrichment (not an outage): nobody will
// ever serve this until a capable shard joins. Any other failure wraps
// ErrAllShardsFailed.
func (c *Coordinator) enrichCatalogFor(ctx context.Context, shards []string, gen uint64) (*golem.TermCatalog, error) {
	return c.ecat.get(gen, func() (*golem.TermCatalog, error) {
		cat, errs := firstSuccess(ctx, shards, func(ctx context.Context, s string) (*golem.TermCatalog, error) {
			cat, err := c.backend.EnrichCatalog(ctx, s)
			if err == nil && len(cat.Terms) == 0 {
				err = errors.New("shard reported an empty term catalog")
			}
			return cat, err
		})
		for _, err := range errs {
			if !errors.Is(err, ErrUnsupported) {
				return nil, fmt.Errorf("%w (enrich catalog: %v)", ErrAllShardsFailed, err)
			}
		}
		if errs != nil {
			return nil, ErrNoEnrichment
		}
		return cat, nil
	})
}
