package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Membership owns a fleet's live shard list behind a generation counter.
// Every consumer — ownership derivation, scatter fan-out, cache keys —
// reads a consistent (shards, generation) pair from Snapshot; Add and
// Remove bump the generation, which re-derives ownership on the next
// scatter (groups are a pure function of the list) and makes every cache
// entry keyed under the old generation unreachable.
//
// Shard identity is the listed string exactly as configured (trimmed of
// whitespace and a trailing slash): it is the rendezvous-hash participant,
// so the coordinator's list entries must be byte-identical to the shard
// daemons' -shards entries or the two sides derive different ownership.
// Turning an identity into a dial address is the resolver's job
// (Config.Resolve), not membership's.
type Membership struct {
	mu     sync.Mutex
	shards []string
	gen    uint64
	bumps  int64
}

// normalizeIdentity canonicalizes one shard identity.
func normalizeIdentity(s string) string {
	return strings.TrimRight(strings.TrimSpace(s), "/")
}

// normalizeIdentities validates and canonicalizes a whole shard list.
func normalizeIdentities(shards []string) ([]string, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: no shard backends configured")
	}
	out := make([]string, len(shards))
	seen := make(map[string]bool, len(shards))
	for i, s := range shards {
		s = normalizeIdentity(s)
		if s == "" {
			return nil, errors.New("shard: empty shard address")
		}
		if seen[s] {
			return nil, fmt.Errorf("shard: duplicate shard address %s", s)
		}
		seen[s] = true
		out[i] = s
	}
	return out, nil
}

// NewMembership validates the initial shard list.
func NewMembership(shards []string) (*Membership, error) {
	normalized, err := normalizeIdentities(shards)
	if err != nil {
		return nil, err
	}
	return &Membership{shards: normalized, gen: Generation(normalized)}, nil
}

// Snapshot returns the live shard list (a copy) and the generation it
// belongs to, atomically.
func (m *Membership) Snapshot() ([]string, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.shards...), m.gen
}

// Generation returns the current topology fingerprint.
func (m *Membership) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Bumps counts membership changes since boot (admin adds and removes).
func (m *Membership) Bumps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bumps
}

// Add appends a shard to the live list and bumps the generation. The new
// shard starts taking ownership on the next scatter.
func (m *Membership) Add(shard string) ([]string, uint64, error) {
	shard = normalizeIdentity(shard)
	if shard == "" {
		return nil, 0, errors.New("shard: empty shard address")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.shards {
		if s == shard {
			return nil, 0, fmt.Errorf("shard: %s is already a member", shard)
		}
	}
	m.shards = append(m.shards, shard)
	m.gen = Generation(m.shards)
	m.bumps++
	return append([]string(nil), m.shards...), m.gen, nil
}

// Remove drops a shard from the live list and bumps the generation: no
// further scatter touches it, so once its in-flight partials finish the
// shard can exit (its daemon's SIGTERM drain covers those). The last
// member cannot be removed — an empty fleet serves nothing.
func (m *Membership) Remove(shard string) ([]string, uint64, error) {
	shard = normalizeIdentity(shard)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range m.shards {
		if s != shard {
			continue
		}
		if len(m.shards) == 1 {
			return nil, 0, errors.New("shard: cannot remove the last member of the fleet")
		}
		m.shards = append(m.shards[:i], m.shards[i+1:]...)
		m.gen = Generation(m.shards)
		m.bumps++
		return append([]string(nil), m.shards...), m.gen, nil
	}
	return nil, 0, fmt.Errorf("shard: %s is not a member", shard)
}
