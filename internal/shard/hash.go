// Package shard turns the single-process SPELL compendium into a
// horizontally scalable service: datasets are assigned to shard backends
// by consistent hashing on dataset id, a Coordinator scatters each query
// over HTTP and merges the per-shard spell.Partial results with global
// weight renormalization (spell.Merge), degrading gracefully when shards
// fail. It is the paper's replicate-and-coordinate pattern — the display
// wall's tile grid at the pixel layer (internal/wall) — applied to the
// query layer.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Owners returns the top-r shards of datasetID's rendezvous
// (highest-random-weight) ranking, in rank order: every participant scores
// each (shard, dataset) pair with one hash, the highest score is the
// owner, entry 1 the first replica, and so on.
//
// Replication factor r gives each dataset r distinct owners out of the
// same per-(shard, dataset) scores, so raising r only *adds* replicas — the
// rank-k owner under r is the rank-k owner under any r' > k — and a
// membership change still moves only ~1/len(shards) of the assignments at
// each rank independently (the minimal-disruption property, per rank). r
// is clamped to len(shards).
//
// Rendezvous was chosen over a ring for three reasons. (1) It needs no
// shared state and no virtual-node tuning: any process holding the same
// shard list computes the same assignment, which is what lets shard
// daemons self-select their slice from nothing but `-shards` + `-self`
// while the coordinator stays entirely stateless about datasets.
// (2) Balance at our scale comes free: with hundreds-to-thousands of
// datasets over a handful of shards, per-shard load concentrates around
// n/s without the hundreds of virtual nodes a ring needs for the same
// variance. (3) Membership changes move only the keys owned by the
// departed shard (1/s of the data), the same minimal-disruption property
// a ring has, with O(s) lookup cost that is irrelevant for s in the tens.
//
// Shard identity is the listed address string: reordering the list does
// not change the assignment, renaming a shard does (it is a new
// participant).
func Owners(datasetID string, shards []string, r int) []string {
	if r > len(shards) {
		r = len(shards)
	}
	if r <= 0 {
		return nil
	}
	type scored struct {
		shard string
		score uint64
	}
	ranked := make([]scored, 0, len(shards))
	for _, s := range shards {
		ranked = append(ranked, scored{shard: s, score: rendezvousScore(s, datasetID)})
	}
	// Deterministic tie-break on the address keeps the assignment a pure
	// function of the (shard set, dataset) pair, as in single ownership.
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].shard < ranked[b].shard
	})
	out := make([]string, r)
	for i := 0; i < r; i++ {
		out[i] = ranked[i].shard
	}
	return out
}

// rendezvousScore hashes one (shard, dataset) pair. FNV-1a over
// shard + NUL + dataset: the separator keeps ("ab","c") and ("a","bc")
// from colliding by concatenation.
func rendezvousScore(shard, datasetID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(datasetID))
	return h.Sum64()
}

// OwnedIndexesR returns the positions (in the given order) of every
// dataset id that lists self among its top-r owners at any rank. A shard
// daemon applies this to the full compendium list to select its slice while
// retaining each dataset's global index for partial remapping; it loads all
// of them, so losing any r-1 other shards loses no dataset.
func OwnedIndexesR(datasetIDs []string, shards []string, self string, r int) []int {
	var owned []int
	for i, id := range datasetIDs {
		for _, o := range Owners(id, shards, r) {
			if o == self {
				owned = append(owned, i)
				break
			}
		}
	}
	return owned
}

// GroupTable is the ownership-group derivation of one (catalog, shards, r)
// view: the distinct ordered top-r owner tuples of the dataset list, and the
// datasets behind each. It is the shared vocabulary of the replicated
// scatter — the coordinator partitions the dataset list into groups and asks
// one replica per group, a shard looks the tuples of a request up in the
// same table and serves the datasets it holds of each — and both sides
// derive it from the same pure function, so no dataset can be claimed twice
// in one merge. Deriving it costs one rendezvous ranking per dataset; both
// sides keep the table of the topology they are serving.
type GroupTable struct {
	// Tuples lists the groups in first-seen catalog order. The ordering is
	// load-bearing: distributed enrichment assigns background slice gi of G
	// to group gi of the G groups.
	Tuples [][]string
	// Members[gi] are the catalog positions of group gi's datasets,
	// ascending.
	Members [][]int
	index   map[string]int
}

// NewGroupTable derives the table.
func NewGroupTable(datasetIDs []string, shards []string, r int) *GroupTable {
	t := &GroupTable{index: make(map[string]int)}
	for i, id := range datasetIDs {
		owners := Owners(id, shards, r)
		key := strings.Join(owners, "\x00")
		gi, ok := t.index[key]
		if !ok {
			gi = len(t.Tuples)
			t.index[key] = gi
			t.Tuples, t.Members = append(t.Tuples, owners), append(t.Members, nil)
		}
		t.Members[gi] = append(t.Members[gi], i)
	}
	return t
}

// Lookup finds an owner tuple's position in Tuples; ok is false for a tuple
// that is not a group of the view.
func (t *GroupTable) Lookup(owners []string) (gi int, ok bool) {
	if len(owners) == 0 {
		return 0, false
	}
	gi, ok = t.index[strings.Join(owners, "\x00")]
	return gi, ok
}

// GroupIndexes returns the positions of the datasets whose ordered top-r
// owner tuple equals owners, under the given shard set (nil when no dataset
// has that tuple): one row of the GroupTable.
func GroupIndexes(datasetIDs []string, shards []string, r int, owners []string) []int {
	t := NewGroupTable(datasetIDs, shards, r)
	if gi, ok := t.Lookup(owners); ok {
		return t.Members[gi]
	}
	return nil
}

// Groups returns the distinct ordered top-r owner tuples of the dataset
// list, in first-seen catalog order: the GroupTable's Tuples.
func Groups(datasetIDs []string, shards []string, r int) [][]string {
	return NewGroupTable(datasetIDs, shards, r).Tuples
}

// CheckPlacement refuses a catalog whose placement collapses: FNV-1a ends on
// its multiply, so dataset ids that differ only in their last byte rank every
// shard list the same way and the whole catalog is one ownership group — r
// shards hold everything, under any fleet. A finalizer on the score would
// move every deployed placement; until that has a migration, a shard refuses
// such a catalog at boot and on reload. A catalog too small to tell (under
// two datasets a shard) or a one-shard fleet passes.
func CheckPlacement(datasetIDs []string, shards []string, r int) error {
	if len(shards) < 2 || len(datasetIDs) < 2*len(shards) {
		return nil
	}
	if groups := Groups(datasetIDs, shards, r); len(groups) == 1 {
		return fmt.Errorf("shard: all %d datasets rank the %d shards identically (one ownership group, %s): "+
			"dataset names that differ only in their last byte place alike; rename them so they differ earlier",
			len(datasetIDs), len(shards), strings.Join(groups[0], ","))
	}
	return nil
}

// Generation fingerprints a shard set: a stable hash of the sorted
// addresses. The daemon bakes it into merged-result cache keys, so a
// coordinator restarted against a different shard topology can never
// serve results merged over the old one.
func Generation(shards []string) uint64 {
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, s := range sorted {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}
