// Package annot implements the gene-annotation substrate: a store of
// per-gene identity and description records and the query engine behind
// ForestView's "Find Genes by name" / annotation-search interface
// (Section 2 of the paper: "search over the gene annotation information by
// entering a list of search criteria ... conducted across all datasets").
package annot

import (
	"sort"
	"strings"
)

// Record is one gene's annotation entry.
type Record struct {
	// ID is the systematic gene identifier (e.g. "YAL001C").
	ID string
	// Name is the common gene symbol (e.g. "TFC3").
	Name string
	// Description is free annotation text (process, function, aliases).
	Description string
}

// Store is an in-memory annotation database with case-insensitive search.
// The zero value is empty and ready to use.
type Store struct {
	records []Record
	byID    map[string]int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{byID: make(map[string]int)}
}

// Add inserts or replaces the record for rec.ID.
func (s *Store) Add(rec Record) {
	if s.byID == nil {
		s.byID = make(map[string]int)
	}
	key := strings.ToUpper(rec.ID)
	if i, ok := s.byID[key]; ok {
		s.records[i] = rec
		return
	}
	s.byID[key] = len(s.records)
	s.records = append(s.records, rec)
}

// Len returns the number of records.
func (s *Store) Len() int { return len(s.records) }

// Get returns the record for the given ID (case-insensitive) and whether it
// exists.
func (s *Store) Get(id string) (Record, bool) {
	if i, ok := s.byID[strings.ToUpper(id)]; ok {
		return s.records[i], true
	}
	return Record{}, false
}

// Query is a parsed search expression. The surface syntax is the one
// biologists type into the TreeView/ForestView search box:
//
//	heat shock            — records matching both terms (AND)
//	heat|cold             — either term (OR group)
//	id:YAL001C            — restrict a term to the ID field
//	name:HSP* desc:stress — simple trailing-* prefix wildcard
//	-ribosome             — exclude matches
//	"cell wall"           — exact phrase
type Query struct {
	groups []orGroup
}

type orGroup struct {
	negate bool
	alts   []term
}

type term struct {
	field  string // "", "id", "name", "desc"
	text   string // lower-case
	prefix bool   // trailing-* wildcard
}

// ParseQuery parses the search expression. An empty expression yields a
// query that matches nothing (a blank search box selects no genes).
func ParseQuery(s string) Query {
	var q Query
	for _, tok := range tokenize(s) {
		g := orGroup{}
		if strings.HasPrefix(tok, "-") && len(tok) > 1 {
			g.negate = true
			tok = tok[1:]
		}
		for _, alt := range strings.Split(tok, "|") {
			alt = strings.TrimSpace(alt)
			if alt == "" {
				continue
			}
			t := term{}
			if i := strings.Index(alt, ":"); i > 0 {
				f := strings.ToLower(alt[:i])
				switch f {
				case "id", "name", "desc":
					t.field = f
					alt = alt[i+1:]
				}
			}
			if strings.HasSuffix(alt, "*") {
				t.prefix = true
				alt = strings.TrimSuffix(alt, "*")
			}
			t.text = strings.ToLower(alt)
			if t.text != "" {
				g.alts = append(g.alts, t)
			}
		}
		if len(g.alts) > 0 {
			q.groups = append(q.groups, g)
		}
	}
	return q
}

// tokenize splits on whitespace while honoring double-quoted phrases.
func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
		case !inQuote && (r == ' ' || r == '\t' || r == '\n' || r == ','):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// Empty reports whether the query has no criteria.
func (q Query) Empty() bool { return len(q.groups) == 0 }

// Matches reports whether the record satisfies every group of the query.
func (q Query) Matches(rec Record) bool {
	if q.Empty() {
		return false
	}
	id := strings.ToLower(rec.ID)
	name := strings.ToLower(rec.Name)
	desc := strings.ToLower(rec.Description)
	for _, g := range q.groups {
		hit := false
		for _, t := range g.alts {
			if t.matches(id, name, desc) {
				hit = true
				break
			}
		}
		if g.negate {
			if hit {
				return false
			}
		} else if !hit {
			return false
		}
	}
	return true
}

func (t term) matches(id, name, desc string) bool {
	check := func(hay string) bool {
		if t.prefix {
			// Prefix wildcard matches at the start of the field or of any
			// word inside it.
			if strings.HasPrefix(hay, t.text) {
				return true
			}
			for _, w := range strings.Fields(hay) {
				if strings.HasPrefix(w, t.text) {
					return true
				}
			}
			return false
		}
		return strings.Contains(hay, t.text)
	}
	switch t.field {
	case "id":
		return check(id)
	case "name":
		return check(name)
	case "desc":
		return check(desc)
	default:
		return check(id) || check(name) || check(desc)
	}
}

// Search returns the IDs of all records matching the expression, sorted for
// deterministic presentation.
func (s *Store) Search(expr string) []string {
	q := ParseQuery(expr)
	if q.Empty() {
		return nil
	}
	var out []string
	for _, rec := range s.records {
		if q.Matches(rec) {
			out = append(out, rec.ID)
		}
	}
	sort.Strings(out)
	return out
}
