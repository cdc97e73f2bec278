// Package fleettest boots a shard fleet inside one process: N members placed
// at replication R by shard.OwnedIndexesR, each serving its engine behind a
// loopback listener, and a coordinator over them. It is the one place outside
// the benchmark that decides how a fleet member is placed and booted. It
// imports neither the server (the caller's Boot serves a Member, so the
// server's internal tests can use it) nor testing (so a gate binary can).
package fleettest

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"

	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// Server is what a member boots into: a handler that can be closed.
type Server interface {
	http.Handler
	Close()
}

// Member is one placed member: its index, its identity "shard-<Index>", the
// global indexes of the datasets it owns (ascending), those datasets, and an
// engine over them. Catalog, Shards and Replication are the fleet it was
// placed in — every dataset's name in global order, every identity, and R —
// shared by all members and not to be modified.
type Member struct {
	Index       int
	ID          string
	Owned       []int
	Datasets    []*microarray.Dataset
	Engine      *spell.Engine
	Catalog     []string
	Shards      []string
	Replication int
}

// Spec describes a fleet.
type Spec[S Server] struct {
	// Datasets is the compendium in global order, Shards the member count N
	// and Replication the ownership factor R (default 1).
	Datasets    []*microarray.Dataset
	Shards      int
	Replication int
	// Coordinator configures the coordinator; New fills in its Shards,
	// Replication and Resolve. Boot serves a placed member: it runs once a
	// member in New, and again at each Restart.
	Coordinator shard.Config
	Boot        func(Member) (S, error)
}

// Fleet is a running fleet. Its methods may be called from any goroutine.
type Fleet[S Server] struct {
	members []Member
	boot    func(Member) (S, error)
	coord   *shard.Coordinator
	conns   []atomic.Int64

	mu        sync.Mutex // guards servers and listeners, which Restart replaces
	servers   []S
	listeners []*httptest.Server
}

// New places and boots every member, then builds the coordinator. A member
// that owns no dataset is an error. On error, whatever was booted is closed.
func New[S Server](spec Spec[S]) (*Fleet[S], error) {
	repl := max(spec.Replication, 1)
	catalog := make([]string, len(spec.Datasets))
	for i, ds := range spec.Datasets {
		catalog[i] = ds.Name
	}
	ids := make([]string, spec.Shards)
	index := make(map[string]int, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-%d", i)
		index[ids[i]] = i
	}
	f := &Fleet[S]{
		boot:      spec.Boot,
		conns:     make([]atomic.Int64, len(ids)),
		servers:   make([]S, len(ids)),
		listeners: make([]*httptest.Server, len(ids)),
	}
	for i, id := range ids {
		m := Member{Index: i, ID: id, Owned: shard.OwnedIndexesR(catalog, ids, id, repl),
			Catalog: catalog, Shards: ids, Replication: repl}
		if len(m.Owned) == 0 {
			f.Close()
			return nil, fmt.Errorf("fleettest: %s owns none of the %d datasets", id, len(catalog))
		}
		for _, gi := range m.Owned {
			m.Datasets = append(m.Datasets, spec.Datasets[gi])
		}
		var err error
		if m.Engine, err = spell.NewEngine(m.Datasets); err == nil {
			f.members = append(f.members, m)
			err = f.start(i)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleettest: booting %s: %w", id, err)
		}
	}
	cfg := spec.Coordinator
	cfg.Shards, cfg.Replication = ids, repl
	cfg.Resolve = func(id string) string {
		if i, ok := index[id]; ok {
			return f.URL(i)
		}
		return ""
	}
	coord, err := shard.NewCoordinator(cfg)
	if err != nil {
		f.Close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// start boots member i behind a new listener that counts the connections it
// accepts.
func (f *Fleet[S]) start(i int) error {
	s, err := f.boot(f.members[i])
	if err != nil {
		return err
	}
	hs := httptest.NewUnstartedServer(s)
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			f.conns[i].Add(1)
		}
	}
	hs.Start()
	f.mu.Lock()
	f.servers[i], f.listeners[i] = s, hs
	f.mu.Unlock()
	return nil
}

// Members lists the placed members, by index.
func (f *Fleet[S]) Members() []Member { return f.members }

// Coordinator is the coordinator over the fleet. It follows Restart.
func (f *Fleet[S]) Coordinator() *shard.Coordinator { return f.coord }

// URL is the base URL of member i's present listener.
func (f *Fleet[S]) URL(i int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.listeners[i].URL
}

// Conns counts the connections member i's listeners have accepted.
func (f *Fleet[S]) Conns(i int) int64 { return f.conns[i].Load() }

// Kill closes member i's listener, waiting for the requests it is serving,
// and then its server. Killing a member twice is harmless.
func (f *Fleet[S]) Kill(i int) {
	f.mu.Lock()
	hs, s := f.listeners[i], f.servers[i]
	f.mu.Unlock()
	if hs != nil { // nil: a member New failed to boot
		hs.Close()
		s.Close()
	}
}

// Restart kills member i and boots the same Member again behind a new
// listener, at a new URL.
func (f *Fleet[S]) Restart(i int) error {
	f.Kill(i)
	return f.start(i)
}

// Close kills every member, the last first.
func (f *Fleet[S]) Close() {
	for i := len(f.members) - 1; i >= 0; i-- {
		f.Kill(i)
	}
}
