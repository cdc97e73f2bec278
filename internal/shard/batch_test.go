package shard

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/spell"
)

// askLog records, per fixture shard, the owner tuples of every search
// request the shard served.
type askLog struct {
	mu   sync.Mutex
	reqs [][][]string // shard index → request → joined owner tuples
}

func (f *scatterFixture) logAsks() *askLog {
	l := &askLog{reqs: make([][][]string, len(f.shards))}
	for si, sh := range f.shards {
		sh.asked = func(req *SearchRequest) {
			tuples := make([]string, len(req.Groups))
			for i, owners := range req.Groups {
				tuples[i] = strings.Join(owners, ">")
			}
			l.mu.Lock()
			l.reqs[si] = append(l.reqs[si], tuples)
			l.mu.Unlock()
		}
	}
	return l
}

// take returns what was logged since the last take: the number of requests,
// and how often each tuple was asked for, fleet-wide.
func (l *askLog) take() (requests int, asked map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	asked = map[string]int{}
	for si, reqs := range l.reqs {
		requests += len(reqs)
		for _, tuples := range reqs {
			for _, tu := range tuples {
				asked[tu]++
			}
		}
		l.reqs[si] = nil
	}
	return requests, asked
}

func sumCounters(snap StatsSnapshot) (requests, groups, faults int64) {
	for _, s := range snap.Shards {
		requests += s.Requests
		groups += s.Groups
		faults += s.Errors + s.Failovers + s.Retries + s.BreakerSkips
	}
	return requests, groups, faults
}

// TestScatterBatchedParity: for every fleet size and replication factor, a
// clean scatter serves every group, matches the single-process Search at
// 1e-12, sends no shard more than one request, and touches none of the
// fault counters.
func TestScatterBatchedParity(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, r := range []int{1, 2, 3} {
			if r > n {
				continue
			}
			t.Run(fmt.Sprintf("shards=%d/r=%d", n, r), func(t *testing.T) {
				f := newScatterFixtureN(t, n, r, 24)
				asks := f.logAsks()
				c, _ := f.start(t, Config{Deadline: 5 * time.Second, Replication: r})
				for _, opt := range []spell.Options{{IncludeQuery: true, MaxGenes: 30}, {UniformWeights: true}} {
					got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
					if err != nil {
						t.Fatal(err)
					}
					if meta.Degraded || meta.GroupsTotal == 0 || meta.GroupsOK != meta.GroupsTotal {
						t.Fatalf("%+v: meta %+v", opt, meta)
					}
					want, err := f.full.Search(f.query, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertParity(t, got, want)
					requests, asked := asks.take()
					if requests > n {
						t.Fatalf("%+v: %d requests over %d shards", opt, requests, n)
					}
					for tuple, times := range asked {
						if times != 1 {
							t.Fatalf("%+v: group %s asked for %d times", opt, tuple, times)
						}
					}
					if len(asked) != meta.GroupsTotal {
						t.Fatalf("%+v: %d of %d groups asked for", opt, len(asked), meta.GroupsTotal)
					}
				}
				snap := c.Stats()
				requests, groups, faults := sumCounters(snap)
				if faults != 0 || snap.UniformRounds != 0 {
					t.Fatalf("a clean fleet counted faults or a second round: %+v", snap)
				}
				if groups != 2*int64(snap.Groups) || requests > groups {
					t.Fatalf("two scatters of %d groups counted %d groups in %d requests", snap.Groups, groups, requests)
				}
			})
		}
	}
}

// TestScatterSendsOneRequestPerShard: the 12 ownership groups of a 4-shard
// R=2 fleet travel in at most 4 search requests — one per replica picked —
// not one per group.
func TestScatterSendsOneRequestPerShard(t *testing.T) {
	f := newScatterFixtureN(t, 4, 2, 24)
	c, _ := f.start(t, Config{Deadline: 5 * time.Second, Replication: 2})
	for i := 0; i < 8; i++ {
		var before int64
		for _, sh := range f.shards {
			before += sh.calls.Load()
		}
		_, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{MaxGenes: 20})
		if err != nil || meta.Degraded {
			t.Fatalf("scatter %d: %v, meta %+v", i, err, meta)
		}
		if meta.GroupsTotal <= 4 {
			t.Fatalf("fixture: %d groups over 4 shards, nothing to batch", meta.GroupsTotal)
		}
		var after int64
		for _, sh := range f.shards {
			after += sh.calls.Load()
		}
		if sent := after - before; sent > 4 {
			t.Fatalf("scatter %d sent %d search requests for %d groups over 4 shards, want at most 4", i, sent, meta.GroupsTotal)
		}
	}
}

// TestScatterDeadPrimaryReasksOnlyItsGroups: with one of four R=2 shards
// dead, the groups it was picked for — and only those — are asked for a
// second time, of their other replica; the merge stays whole.
func TestScatterDeadPrimaryReasksOnlyItsGroups(t *testing.T) {
	f := newScatterFixtureN(t, 4, 2, 24)
	asks := f.logAsks()
	c, servers := f.start(t, Config{Deadline: 2 * time.Second, Replication: 2})
	servers[2].Close()
	want, err := f.full.Search(f.query, spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	failedOver := false
	for i := 0; i < 6; i++ {
		got, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{})
		if err != nil || meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
			t.Fatalf("scatter %d: %v, meta %+v", i, err, meta)
		}
		assertParity(t, got, want)
		// The dead shard logs nothing, so every group must have been asked
		// for exactly once among the living: the survivors' own groups once,
		// the dead shard's groups once on failover, nothing twice.
		requests, asked := asks.take()
		if len(asked) != meta.GroupsTotal {
			t.Fatalf("scatter %d: %d of %d groups reached a live shard", i, len(asked), meta.GroupsTotal)
		}
		for tuple, times := range asked {
			if times != 1 {
				t.Fatalf("scatter %d: group %s asked for %d times among the live shards", i, tuple, times)
			}
		}
		failedOver = failedOver || requests > 3
	}
	var failovers int64
	snap := c.Stats()
	for _, s := range snap.Shards {
		failovers += s.Failovers
	}
	if !failedOver || failovers == 0 || snap.Shards[2].Errors == 0 {
		t.Fatalf("failover not exercised: %+v", snap)
	}
}

// TestScatterPartlyHeldGroupFailsOverAlone: a shard that holds one of its
// groups only in part answers the others in its summed frame and that one
// in a frame of its own; the coordinator settles the others from it and
// fails over the one, to the replica that holds it whole.
func TestScatterPartlyHeldGroupFailsOverAlone(t *testing.T) {
	f := newScatterFixtureN(t, 4, 2, 24)
	// Shard 0 drifts: it no longer answers for the first dataset it holds.
	drift := f.shards[0].global[0]
	f.shards[0].disown = map[int]bool{drift: true}
	driftTuple := strings.Join(Owners(f.ids[drift], f.identities, 2), ">")
	asks := f.logAsks()
	c, _ := f.start(t, Config{Deadline: 2 * time.Second, Replication: 2})
	want, err := f.full.Search(f.query, spell.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reasked := 0
	for i := 0; i < 8; i++ {
		got, meta, err := c.SearchCtx(context.Background(), f.query, spell.Options{})
		if err != nil || meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
			t.Fatalf("scatter %d: %v, meta %+v", i, err, meta)
		}
		assertParity(t, got, want)
		_, asked := asks.take()
		for tuple, times := range asked {
			// Only the drifted group may be asked for twice, and then only
			// because shard 0 was its first pick.
			if times != 1 && (tuple != driftTuple || times != 2) {
				t.Fatalf("scatter %d: group %s asked for %d times", i, tuple, times)
			}
		}
		if asked[driftTuple] == 2 {
			reasked++
		}
	}
	if reasked == 0 {
		t.Fatal("fixture: shard 0 was never the first pick for its drifted group")
	}
	var failovers int64
	for _, s := range c.Stats().Shards {
		failovers += s.Failovers
	}
	if failovers != int64(reasked) {
		t.Fatalf("%d failovers for %d re-asked groups", failovers, reasked)
	}
}

// TestScatterUniformSecondRound: a query incoherent in every dataset is
// scattered twice — the weighted round, which scans nothing, then the
// uniform round — matches the single-process fallback, counts one uniform
// round and no fault; UniformWeights goes straight to the uniform pair.
func TestScatterUniformSecondRound(t *testing.T) {
	f := newScatterFixtureN(t, 3, 2, 12)
	// Keep one query gene per dataset: no coherence is defined anywhere.
	keep := map[string]bool{}
	for _, q := range f.query {
		keep[q] = true
	}
	rng := rand.New(rand.NewSource(5))
	for di, ds := range f.dss {
		var rows []int
		for r, g := range ds.Genes {
			if (!keep[g.ID] && rng.Float64() < 0.9) || g.ID == f.query[di%len(f.query)] {
				rows = append(rows, r)
			}
		}
		f.dss[di] = ds.Subset(ds.Name, rows)
	}
	f.rebuild(t)
	var uniformAsks, weightedAsks int
	var mu sync.Mutex
	for _, sh := range f.shards {
		sh.asked = func(req *SearchRequest) {
			mu.Lock()
			defer mu.Unlock()
			if req.Uniform {
				uniformAsks++
			} else {
				weightedAsks++
			}
		}
	}
	c, _ := f.start(t, Config{Deadline: 5 * time.Second, Replication: 2})
	// Not IncludeQuery: each query gene correlates only with itself there,
	// they tie at exactly 1, and Merge orders exact ties by ID.
	opt := spell.Options{MaxGenes: 40}
	want, err := f.full.Search(f.query, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, meta, err := c.SearchCtx(context.Background(), f.query, opt)
	if err != nil || meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
		t.Fatalf("incoherent query: %v, meta %+v", err, meta)
	}
	assertParity(t, got, want)
	if weightedAsks == 0 || uniformAsks == 0 {
		t.Fatalf("%d weighted and %d uniform requests: want a round of each", weightedAsks, uniformAsks)
	}
	snap := c.Stats()
	if _, _, faults := sumCounters(snap); snap.UniformRounds != 1 || faults != 0 {
		t.Fatalf("want one uniform round and no fault: %+v", snap)
	}

	weightedAsks, uniformAsks = 0, 0
	opt.UniformWeights = true
	if want, err = f.full.Search(f.query, opt); err != nil {
		t.Fatal(err)
	}
	if got, _, err = c.SearchCtx(context.Background(), f.query, opt); err != nil {
		t.Fatal(err)
	}
	assertParity(t, got, want)
	if weightedAsks != 0 || c.Stats().UniformRounds != 1 {
		t.Fatalf("UniformWeights took a weighted round first (%d weighted requests, %d uniform rounds)", weightedAsks, c.Stats().UniformRounds)
	}
}

// rebuild re-derives the fixture's engines after f.dss was edited in place.
func (f *scatterFixture) rebuild(t testing.TB) {
	t.Helper()
	var err error
	if f.full, err = spell.NewEngine(f.dss); err != nil {
		t.Fatal(err)
	}
	for _, sh := range f.shards {
		slice := make([]*microarray.Dataset, len(sh.global))
		for li, gi := range sh.global {
			slice[li] = f.dss[gi]
		}
		if sh.engine, err = spell.NewEngine(slice); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOldFrameInAnswerFailsOnItsVersion pins why the bad-frame row of
// TestScatterFailureModes fails: the body decodes, the frame does not.
func TestOldFrameInAnswerFailsOnItsVersion(t *testing.T) {
	var a SearchAnswer
	err := a.UnmarshalBinary(oldFrameAnswer([]int{0}))
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("decoding an answer with a version-1 frame: err = %v, want the frame's version check", err)
	}
}
