package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file turns a seed into requests. Every plan is a pure function of
// (workload, seed, plan inputs): one op stream per workload, cut into the
// warm-up, cruise, sat and trace phases in that order, so no phase repeats
// another's never-seen ops. The program under test receives only the
// generated requests.

type opKind uint8

const (
	opSearch opKind = iota
	opEnrich
	opTile
)

func (k opKind) String() string { return [...]string{"search", "enrich", "tile"}[k] }

// op is one request plus what the verifier needs to recompute its answer.
type op struct {
	kind  opKind
	path  string
	genes []string // search query or enrich selection
	// tile window: display rows [from, to) of pane
	pane, from, to int
	// fresh marks a session-hot op the plan made never-seen on purpose.
	fresh bool
}

func searchOp(query []string) op {
	return op{kind: opSearch, genes: query,
		path: "/api/search?q=" + url.QueryEscape(strings.Join(query, ",")) + fmt.Sprintf("&top=%d", searchTop)}
}

func enrichOp(selection []string) op {
	return op{kind: opEnrich, genes: selection,
		path: "/api/enrich?genes=" + url.QueryEscape(strings.Join(selection, ","))}
}

func tileOp(pane, from, to int) op {
	return op{kind: opTile, pane: pane, from: from, to: to,
		path: fmt.Sprintf("/api/heatmap?dataset=%d&rows=%d:%d&w=%d&h=%d", pane, from, to, tilePx, tilePx)}
}

// planInputs is what a plan may know about the data: gene IDs by module
// and pane heights. topGenes, needed by session-hot alone, returns the
// top-20 genes of a query from a direct Engine.Search on the benchmark's
// own copy of the compendium.
type planInputs struct {
	modules  [][]string
	paneRows []int
	topGenes func(query []string) ([]string, error)
}

// subRand derives an independent generator per (seed, purpose), so one
// stream's draws never shift another's: fleet-scatter draws the same
// queries as search-cold although it also draws selections and a mix.
func subRand(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(purpose))
	return rand.New(rand.NewSource(seed*0x9E3779B9 + int64(h.Sum64()>>1)))
}

// geneSets draws distinct gene sets, each inside one module. Set sizes
// cycle through minN..maxN instead of being drawn: a search's cost grows
// with its query size, and cycling gives every seed the same size mix, so
// runs differ by which genes they ask about, not by how much work they ask
// for.
type geneSets struct {
	rng      *rand.Rand
	modules  [][]string
	eligible []int // modules with at least maxN genes
	minN     int
	maxN     int
	drawn    int
	seen     map[string]bool
}

func newGeneSets(rng *rand.Rand, modules [][]string, minN, maxN int, seen map[string]bool) *geneSets {
	g := &geneSets{rng: rng, modules: modules, minN: minN, maxN: maxN, seen: seen}
	for m, genes := range modules {
		if len(genes) >= maxN {
			g.eligible = append(g.eligible, m)
		}
	}
	return g
}

// next returns a never-returned set, in canonical (sorted) order.
func (g *geneSets) next() []string {
	n := g.minN + g.drawn%(g.maxN-g.minN+1)
	g.drawn++
	for {
		genes := g.modules[g.eligible[g.rng.Intn(len(g.eligible))]]
		picked := make(map[int]bool, n)
		set := make([]string, 0, n)
		for len(set) < n {
			if i := g.rng.Intn(len(genes)); !picked[i] {
				picked[i] = true
				set = append(set, genes[i])
			}
		}
		sort.Strings(set)
		if key := strings.Join(set, ","); !g.seen[key] {
			g.seen[key] = true
			return set
		}
	}
}

// stream yields a workload's ops in plan order.
type stream interface {
	// take returns the next n ops.
	take(n int) ([]op, error)
	// pretouch lists the ops the warm-up sends before anything else, so the
	// state the workload is named for exists when measurement starts.
	pretouch() ([]op, error)
}

func newStream(w *workload, in planInputs, seed int64) (stream, error) {
	switch w.name {
	case "search-cold":
		return &searchStream{queries: newQueries(in, seed)}, nil
	case "fleet-scatter":
		return &searchStream{
			queries:     newQueries(in, seed),
			enrichEvery: 100 / fleetEnrichPct,
			selections:  newGeneSets(subRand(seed, "selections"), in.modules, enrichGenes, enrichGenes, map[string]bool{}),
		}, nil
	case "tile-cold":
		return &tileStream{rng: subRand(seed, "tiles"), paneRows: in.paneRows, seen: map[[3]int]bool{}}, nil
	case "session-hot":
		return newSessionStream(in, seed)
	}
	return nil, fmt.Errorf("no plan for workload %q", w.name)
}

// newQueries is the 3-5 gene query generator search-cold and fleet-scatter
// share: same seed, same queries.
func newQueries(in planInputs, seed int64) *geneSets {
	return newGeneSets(subRand(seed, "queries"), in.modules, 3, 5, map[string]bool{})
}

// searchStream is search-cold (searches only) and fleet-scatter
// (fleetEnrichPct percent of ops are distinct-selection enrichments).
type searchStream struct {
	queries *geneSets
	// enrichEvery makes every enrichEvery-th op an enrichment, in rotation
	// rather than drawn, for the reason geneSets cycles its sizes.
	enrichEvery int
	selections  *geneSets
	taken       int
}

func (s *searchStream) take(n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		s.taken++
		if s.enrichEvery > 0 && s.taken%s.enrichEvery == 0 {
			ops[i] = enrichOp(s.selections.next())
		} else {
			ops[i] = searchOp(s.queries.next())
		}
	}
	return ops, nil
}

func (s *searchStream) pretouch() ([]op, error) { return nil, nil }

// tileStream is tile-cold: pane, span (64 rows to the whole pane, so
// level=auto covers every pyramid level) and offset uniformly random and
// uncorrelated, so neither the LRU nor the prefetcher's neighbour
// predictions can help. Panes and span octiles are visited in rotation
// rather than drawn, for the reason geneSets cycles its sizes: a tile's
// cost follows its span, and every seed should ask for the same mix.
type tileStream struct {
	rng      *rand.Rand
	paneRows []int
	drawn    int
	seen     map[[3]int]bool
}

const spanStrata = 8

func (s *tileStream) take(n int) ([]op, error) {
	ops := make([]op, 0, n)
	for len(ops) < n {
		pane := s.drawn % len(s.paneRows)
		stratum := s.drawn / len(s.paneRows) % spanStrata
		rows := s.paneRows[pane]
		lo := min(64, rows)
		width := (rows - lo + spanStrata) / spanStrata
		span := min(rows, lo+stratum*width+s.rng.Intn(width))
		from := s.rng.Intn(rows - span + 1)
		if key := [3]int{pane, from, from + span}; !s.seen[key] {
			s.seen[key] = true
			s.drawn++
			ops = append(ops, tileOp(pane, from, from+span))
		}
	}
	return ops, nil
}

func (s *tileStream) pretouch() ([]op, error) { return nil, nil }

// sessionStream is session-hot: sessionUsers interleaved users, each
// working through overview tile -> 6-8 whole-window pan/zoom steps ->
// two or three (SPELL query, enrichment of its top hits) pairs, then
// starting over on another pane. Queries come Zipf-ranked from a
// pre-touched pool; freshShare of all ops are made never-seen on purpose
// (a new query with its enrichment, or a jump to an unvisited window), so
// the cold share is the plan's, not cache luck.
type sessionStream struct {
	in      planInputs
	rng     *rand.Rand
	zipf    *rand.Zipf
	pool    [][]string
	fresh   *geneSets
	users   []user
	visited map[[3]int]bool

	emitted, freshOps int
	// top memoizes topGenes by query.
	top map[string][]string
}

type user struct {
	script []opKind // what is left of the session; a tile at index 0 of a new session is the overview
	first  bool
	pane   int
	from   int
	to     int
	dir    int
	query  []string
	qFresh bool
}

func newSessionStream(in planInputs, seed int64) (*sessionStream, error) {
	if in.topGenes == nil {
		return nil, fmt.Errorf("session-hot needs a reference engine for its enrichment selections")
	}
	seen := map[string]bool{}
	pool := newGeneSets(subRand(seed, "pool"), in.modules, 3, 5, seen)
	s := &sessionStream{
		in:      in,
		rng:     subRand(seed, "sessions"),
		fresh:   newGeneSets(subRand(seed, "fresh"), in.modules, 3, 5, seen),
		users:   make([]user, sessionUsers),
		visited: map[[3]int]bool{},
		top:     map[string][]string{},
	}
	for i := 0; i < poolQueries; i++ {
		s.pool = append(s.pool, pool.next())
	}
	s.zipf = rand.NewZipf(s.rng, zipfS, 1, poolQueries-1)
	return s, nil
}

func (s *sessionStream) pretouch() ([]op, error) {
	var ops []op
	for pane, rows := range s.in.paneRows {
		ops = append(ops, tileOp(pane, 0, rows))
		s.visited[[3]int{pane, 0, rows}] = true
	}
	for _, q := range s.pool {
		ops = append(ops, searchOp(q), op{kind: opEnrich, genes: q})
	}
	return ops, s.resolve(ops)
}

func (s *sessionStream) take(n int) ([]op, error) {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops, s.resolve(ops)
}

// wantFresh keeps the running fresh share pinned: an op that may choose
// becomes fresh exactly when the share so far is below target.
func (s *sessionStream) wantFresh() bool {
	return float64(s.freshOps) < freshShare*float64(s.emitted+1)
}

func (s *sessionStream) next() op {
	u := &s.users[s.rng.Intn(len(s.users))]
	if len(u.script) == 0 {
		*u = user{first: true, pane: s.rng.Intn(len(s.in.paneRows)), dir: 1}
		for i, tiles := 0, 7+s.rng.Intn(3); i < tiles; i++ {
			u.script = append(u.script, opTile)
		}
		for i, pairs := 0, 2+s.rng.Intn(2); i < pairs; i++ {
			u.script = append(u.script, opSearch, opEnrich)
		}
	}
	kind := u.script[0]
	u.script = u.script[1:]
	var o op
	switch kind {
	case opTile:
		rows := s.in.paneRows[u.pane]
		fresh := false
		switch {
		case u.first:
			u.first = false
			u.from, u.to = 0, rows
		case s.wantFresh():
			s.jump(u, rows)
			fresh = true
		default:
			s.step(u, rows)
		}
		s.visited[[3]int{u.pane, u.from, u.to}] = true
		o = tileOp(u.pane, u.from, u.to)
		o.fresh = fresh
	case opSearch:
		if u.qFresh = s.wantFresh(); u.qFresh {
			u.query = s.fresh.next()
		} else {
			u.query = s.pool[s.zipf.Uint64()]
		}
		o = searchOp(u.query)
		o.fresh = u.qFresh
	case opEnrich:
		// The selection (the query's top hits) is filled in by resolve.
		o = op{kind: opEnrich, genes: u.query, fresh: u.qFresh}
	}
	s.emitted++
	if o.fresh {
		s.freshOps++
	}
	return o
}

// jump moves the user to a window no op of the plan has requested: a
// span of rows/2^k at an arbitrary offset.
func (s *sessionStream) jump(u *user, rows int) {
	for {
		span := max(1, rows>>uint(1+s.rng.Intn(4)))
		from := s.rng.Intn(rows - span + 1)
		if !s.visited[[3]int{u.pane, from, from + span}] {
			u.from, u.to = from, from+span
			return
		}
	}
}

// step moves one whole window, or zooms to the parent or child window,
// with exactly the geometry the daemon's prefetcher predicts from the
// previous tile (and workload.NewPanwalkPlan walks): pan windows truncate
// at the pane edges, the parent doubles the span around the centre, the
// child is the centre half.
func (s *sessionStream) step(u *user, rows int) {
	span := u.to - u.from
	r := s.rng.Intn(100)
	switch {
	case span >= rows || (r < 25 && span >= 2*tilePx):
		u.from += span / 4
		u.to = min(rows, u.from+span/2)
	case r < 40 && 2*span <= rows:
		centre := (u.from + u.to) / 2
		u.from = max(0, centre-span)
		u.to = min(rows, u.from+2*span)
	default:
		if u.dir > 0 && u.to >= rows {
			u.dir = -1
		} else if u.dir < 0 && u.from <= 0 {
			u.dir = 1
		}
		if u.dir > 0 {
			u.from, u.to = u.to, min(u.to+span, rows)
		} else {
			u.from, u.to = max(0, u.from-span), u.from
		}
	}
}

// resolve turns every enrich op's query into its selection, the query's
// top hits, searching each distinct query once and in parallel.
func (s *sessionStream) resolve(ops []op) error {
	var todo [][]string
	queued := map[string]bool{}
	for _, o := range ops {
		if o.kind != opEnrich {
			continue
		}
		if key := strings.Join(o.genes, ","); s.top[key] == nil && !queued[key] {
			queued[key] = true
			todo = append(todo, o.genes)
		}
	}
	tops := make([][]string, len(todo))
	errs := make([]error, len(todo))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < connections(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				tops[i], errs[i] = s.in.topGenes(todo[i])
			}
		}()
	}
	for i := range todo {
		work <- i
	}
	close(work)
	wg.Wait()
	for i, q := range todo {
		if errs[i] != nil {
			return fmt.Errorf("top genes of %v: %w", q, errs[i])
		}
		s.top[strings.Join(q, ",")] = tops[i]
	}
	for i := range ops {
		if ops[i].kind == opEnrich {
			fresh := ops[i].fresh
			ops[i] = enrichOp(s.top[strings.Join(ops[i].genes, ",")])
			ops[i].fresh = fresh
		}
	}
	return nil
}

// arrivals draws a homogeneous Poisson schedule at rate ops/s over d:
// offsets from the phase start, fixed before the first send.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := subRand(seed, "arrivals")
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}
