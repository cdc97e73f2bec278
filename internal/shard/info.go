package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file holds what the coordinator learns from the fleet rather than
// being told: the dataset catalog it partitions into ownership groups
// (any one shard's boot catalog, cached per membership generation) and
// the union compendium description behind /api/stats.

// genCache holds one value per membership generation: the first caller of
// a generation fetches it (fetches are serialized, failures are not
// cached), everyone else reads the stored value lock-free. A membership
// bump changes the generation and so invalidates it.
type genCache[T any] struct {
	mu  sync.Mutex
	cur atomic.Pointer[genEntry[T]]
}

type genEntry[T any] struct {
	gen uint64
	val T
}

// peek returns the value cached for gen, if any.
func (g *genCache[T]) peek(gen uint64) (T, bool) {
	if e := g.cur.Load(); e != nil && e.gen == gen {
		return e.val, true
	}
	var zero T
	return zero, false
}

// get returns the value for gen, calling fetch to fill it on the first use
// of a generation.
func (g *genCache[T]) get(gen uint64, fetch func() (T, error)) (T, error) {
	if v, ok := g.peek(gen); ok {
		return v, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if v, ok := g.peek(gen); ok {
		return v, nil // filled while we waited on the lock
	}
	v, err := fetch()
	if err == nil {
		g.cur.Store(&genEntry[T]{gen: gen, val: v})
	}
	return v, err
}

// firstSuccess asks every live shard concurrently and takes the first
// successful answer — any one shard suffices, so a partly dead fleet can
// still answer. When no shard succeeds it returns every shard's error
// (never empty: a fleet has at least one member).
func firstSuccess[T any](ctx context.Context, shards []string, fetch func(ctx context.Context, shard string) (T, error)) (T, []error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		val T
		err error
	}
	ch := make(chan result, len(shards))
	for _, s := range shards {
		go func(s string) {
			v, err := fetch(ctx, s)
			if err != nil {
				err = fmt.Errorf("%s: %w", s, err)
			}
			ch <- result{v, err}
		}(s)
	}
	var errs []error
	for range shards {
		r := <-ch
		if r.err == nil {
			return r.val, nil
		}
		errs = append(errs, r.err)
	}
	var zero T
	return zero, errs
}

// catalogFor returns the ownership groups for the given membership
// snapshot — the GroupTable the shards look a request's tuples up in, so
// group gi here is group (and background slice) gi there — fetching the
// dataset catalog from any one live shard on the first scatter of a
// generation. With no shard reachable the error wraps ErrAllShardsFailed.
func (c *Coordinator) catalogFor(ctx context.Context, shards []string, gen uint64) (*GroupTable, error) {
	return c.catalog.get(gen, func() (*GroupTable, error) {
		ids, errs := firstSuccess(ctx, shards, func(ctx context.Context, s string) ([]string, error) {
			info, err := c.backend.Info(ctx, s)
			if err != nil {
				return nil, err
			}
			if len(info.AllDatasetIDs) == 0 {
				return nil, fmt.Errorf("shard reported no dataset catalog")
			}
			return info.AllDatasetIDs, nil
		})
		if errs != nil {
			return nil, fmt.Errorf("%w (catalog: %v)", ErrAllShardsFailed, errs[0])
		}
		return NewGroupTable(ids, shards, c.replicationFor(len(shards))), nil
	})
}

// CompendiumInfo aggregates what the shard set holds.
type CompendiumInfo struct {
	Datasets int
	Genes    int // distinct gene IDs across the union of slices
}

// infoFailureCooldown is how long a failed compendium-info probe round
// answers further callers with its error instead of a new round.
const infoFailureCooldown = 15 * time.Second

// infoState pairs a cached compendium union with the membership
// generation it was probed under.
type infoState struct {
	gen  uint64
	info CompendiumInfo
}

// Info returns the union compendium description, fetching each live
// shard's InfoPath and caching a fully successful answer under the
// membership generation — a join or leave invalidates it, so dataset
// counts and the gene universe refresh with the fleet. While any live
// shard is unreachable the info stays uncached and the error is returned,
// so callers degrade to "unknown" rather than a wrong total; probes are
// serialized, and after a failed round further callers get that error for
// infoFailureCooldown (cleared by a membership bump) instead of re-probing a
// known-sick fleet.
func (c *Coordinator) Info(ctx context.Context) (CompendiumInfo, error) {
	shards, gen := c.membership.Snapshot()
	if cached := c.info.Load(); cached != nil && cached.gen == gen {
		return cached.info, nil
	}
	c.infoMu.Lock()
	defer c.infoMu.Unlock()
	if cached := c.info.Load(); cached != nil && cached.gen == gen {
		return cached.info, nil // filled while we waited on the lock
	}
	if c.infoErr != nil && c.infoErrGen == gen && c.infoNow().Sub(c.infoFailedAt) < infoFailureCooldown {
		return CompendiumInfo{}, c.infoErr
	}
	info, err := c.probeInfo(ctx, shards)
	if err != nil {
		c.infoFailedAt, c.infoErr, c.infoErrGen = c.infoNow(), err, gen
		return CompendiumInfo{}, err
	}
	c.infoErr = nil
	c.infoFailedAt = time.Time{}
	c.info.Store(&infoState{gen: gen, info: info})
	return info, nil
}

// ForgetInfo drops the cached compendium description, so the next Info
// probes again: a member's holdings grew under the same membership (a
// shard's reload, as its own coordinator sees it).
func (c *Coordinator) ForgetInfo() {
	c.infoMu.Lock()
	defer c.infoMu.Unlock()
	c.info.Store(nil)
}

// probeInfo runs one probe round over every live shard. The dataset count
// is the union of reported dataset names (replicated slices overlap).
func (c *Coordinator) probeInfo(ctx context.Context, shards []string) (CompendiumInfo, error) {
	infos := make([]*Info, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for si := range shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			infos[si], errs[si] = c.backend.Info(ctx, shards[si])
		}(si)
	}
	wg.Wait()
	genes := make(map[string]bool)
	names := make(map[string]bool)
	for si, info := range infos {
		if info == nil {
			return CompendiumInfo{}, fmt.Errorf("%s: %w", shards[si], errs[si])
		}
		for _, n := range info.DatasetIDs {
			names[n] = true
		}
		for _, g := range info.GeneIDs {
			genes[g] = true
		}
	}
	return CompendiumInfo{Datasets: len(names), Genes: len(genes)}, nil
}
