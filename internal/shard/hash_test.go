package shard

import (
	"fmt"
	"testing"
)

func TestOwnerPartition(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1"}
	var ids []string
	for i := 0; i < 300; i++ {
		ids = append(ids, fmt.Sprintf("dataset-%03d", i))
	}
	// Every dataset is owned by exactly one shard, and the per-shard
	// OwnedIndexesR views reassemble the full list without overlap.
	seen := make(map[int]string)
	for _, s := range shards {
		for _, idx := range OwnedIndexesR(ids, shards, s, 1) {
			if prev, dup := seen[idx]; dup {
				t.Fatalf("dataset %d owned by both %s and %s", idx, prev, s)
			}
			seen[idx] = s
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("only %d of %d datasets owned", len(seen), len(ids))
	}
	// Rough balance: no shard should be empty, none should hoard.
	counts := make(map[string]int)
	for _, s := range seen {
		counts[s]++
	}
	for s, n := range counts {
		if n < len(ids)/10 || n > len(ids)*2/3 {
			t.Fatalf("shard %s owns %d of %d — hashing badly unbalanced", s, n, len(ids))
		}
	}
}

func TestOwnerOrderInsensitiveAndStable(t *testing.T) {
	a := []string{"http://a:1", "http://b:1", "http://c:1"}
	b := []string{"http://c:1", "http://a:1", "http://b:1"}
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("ds-%d", i)
		if Owners(id, a, 1)[0] != Owners(id, b, 1)[0] {
			t.Fatalf("ownership of %s depends on shard list order", id)
		}
		if Owners(id, a, 1)[0] != Owners(id, a, 1)[0] {
			t.Fatalf("ownership of %s unstable", id)
		}
	}
}

// TestOwnerMinimalDisruption pins the consistent-hashing property that
// justifies rendezvous: removing one shard only reassigns the datasets it
// owned — every other assignment is untouched.
func TestOwnerMinimalDisruption(t *testing.T) {
	full := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	without := []string{"http://a:1", "http://b:1", "http://d:1"}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("ds-%d", i)
		before := Owners(id, full, 1)[0]
		after := Owners(id, without, 1)[0]
		if before != "http://c:1" && after != before {
			t.Fatalf("dataset %s moved %s -> %s though its owner survived", id, before, after)
		}
		if before == "http://c:1" && after == "http://c:1" {
			t.Fatalf("dataset %s still owned by removed shard", id)
		}
	}
}

func TestGeneration(t *testing.T) {
	a := Generation([]string{"x", "y"})
	if a != Generation([]string{"y", "x"}) {
		t.Fatal("generation depends on shard order")
	}
	if a == Generation([]string{"x", "z"}) {
		t.Fatal("different topologies share a generation")
	}
}

// TestOwnersTopR pins the replicated-ownership contract: every dataset
// has exactly min(R, len(shards)) owners, the replica ranks are distinct
// shards, rank 0 agrees with single ownership, and raising R only appends
// replicas (the rank-k owner is R-invariant).
func TestOwnersTopR(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("ds-%d", i)
		for r := 1; r <= len(shards)+1; r++ {
			owners := Owners(id, shards, r)
			wantLen := r
			if wantLen > len(shards) {
				wantLen = len(shards)
			}
			if len(owners) != wantLen {
				t.Fatalf("Owners(%s, r=%d) = %d owners, want %d", id, r, len(owners), wantLen)
			}
			seen := make(map[string]bool)
			for _, o := range owners {
				if seen[o] {
					t.Fatalf("Owners(%s, r=%d) repeats %s", id, r, o)
				}
				seen[o] = true
			}
			if owners[0] != Owners(id, shards, 1)[0] {
				t.Fatalf("Owners(%s)[0] = %s, Owner = %s", id, owners[0], Owners(id, shards, 1)[0])
			}
			if r > 1 {
				prev := Owners(id, shards, r-1)
				for k := range prev {
					if owners[k] != prev[k] {
						t.Fatalf("rank-%d owner of %s changed between R=%d and R=%d", k, id, r-1, r)
					}
				}
			}
		}
	}
}

// TestOwnedIndexesRCoverage: under replication factor R every dataset
// appears in exactly R shards' owned slices, so any R-1 shard deaths lose
// nothing.
func TestOwnedIndexesRCoverage(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	var ids []string
	for i := 0; i < 300; i++ {
		ids = append(ids, fmt.Sprintf("dataset-%03d", i))
	}
	const r = 2
	copies := make(map[int]int)
	for _, s := range shards {
		for _, idx := range OwnedIndexesR(ids, shards, s, r) {
			copies[idx]++
		}
	}
	if len(copies) != len(ids) {
		t.Fatalf("only %d of %d datasets have any owner", len(copies), len(ids))
	}
	for idx, n := range copies {
		if n != r {
			t.Fatalf("dataset %d held by %d shards, want %d", idx, n, r)
		}
	}
}

// TestOwnersPerRankDisruption: a membership change moves only ~1/N of the
// (dataset, rank) assignments at each rank — the minimal-disruption
// property per replica rank, not just for the primary.
func TestOwnersPerRankDisruption(t *testing.T) {
	full := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1", "http://e:1"}
	without := []string{"http://a:1", "http://b:1", "http://d:1", "http://e:1"}
	const n = 1000
	const r = 2
	moved := make([]int, r)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ds-%d", i)
		before := Owners(id, full, r)
		after := Owners(id, without, r)
		for k := 0; k < r; k++ {
			if before[k] != after[k] {
				moved[k]++
			}
		}
	}
	// Removing 1 of 5 shards must reassign about 1/5 of rank-0 slots (the
	// removed shard's share). Rank 1 moves slightly more (its own 1/5 plus
	// promotions filling rank-0 vacancies), still nowhere near a reshuffle.
	// Generous bounds: catching a full reshuffle (~80% moved), not hash
	// variance.
	for k, m := range moved {
		frac := float64(m) / n
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("rank %d: %.1f%% of assignments moved on one departure — expected ~20%%, got a %s",
				k, 100*frac, map[bool]string{true: "reshuffle", false: "suspiciously static hash"}[frac > 0.45])
		}
	}
}

// TestGroupIndexesPartition: ownership groups (distinct owner tuples)
// partition the dataset list — both coordinator and shard derive them from
// the same pure function, so together they cover everything exactly once.
func TestGroupIndexesPartition(t *testing.T) {
	shards := []string{"http://a:1", "http://b:1", "http://c:1"}
	var ids []string
	for i := 0; i < 120; i++ {
		ids = append(ids, fmt.Sprintf("dataset-%03d", i))
	}
	const r = 2
	tuples := make(map[string][]string)
	for _, id := range ids {
		owners := Owners(id, shards, r)
		key := fmt.Sprintf("%v", owners)
		tuples[key] = owners
	}
	seen := make(map[int]string)
	for key, owners := range tuples {
		for _, idx := range GroupIndexes(ids, shards, r, owners) {
			if prev, dup := seen[idx]; dup {
				t.Fatalf("dataset %d in groups %s and %s", idx, prev, key)
			}
			seen[idx] = key
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("groups cover %d of %d datasets", len(seen), len(ids))
	}
}

// TestCheckPlacement: names that differ only in their last byte rank every
// shard list identically (FNV-1a ends on its multiply), so such a catalog is
// one ownership group under any fleet and replication; CheckPlacement refuses
// it once the catalog is large enough to tell, and nothing else.
func TestCheckPlacement(t *testing.T) {
	numbered := func(prefix, suffix string, n int) []string {
		var ids []string
		for i := 0; i < n; i++ {
			ids = append(ids, prefix+string(rune('a'+i))+suffix)
		}
		return ids
	}
	fleet := func(n int) []string {
		var shards []string
		for i := 0; i < n; i++ {
			shards = append(shards, fmt.Sprintf("10.0.0.%d:9000", i))
		}
		return shards
	}
	cases := []struct {
		name   string
		ids    []string
		shards []string
		r      int
		refuse bool
	}{
		{"last byte differs, 2 shards", numbered("expr-", "", 4), fleet(2), 1, true},
		{"last byte differs, 4 shards R=2", numbered("expr-", "", 8), fleet(4), 2, true},
		{"last byte differs, 8 shards R=8", numbered("expr-", "", 20), fleet(8), 8, true},
		{"differs before a common suffix", numbered("expr-", ".2007", 8), fleet(4), 2, false},
		{"too few datasets to tell", numbered("expr-", "", 3), fleet(2), 1, false},
		{"one shard", numbered("expr-", "", 8), fleet(1), 1, false},
		{"empty catalog", nil, fleet(3), 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckPlacement(c.ids, c.shards, c.r)
			if (err != nil) != c.refuse {
				t.Fatalf("CheckPlacement = %v, want refusal %t (%d groups)", err, c.refuse, len(Groups(c.ids, c.shards, c.r)))
			}
		})
	}
}
