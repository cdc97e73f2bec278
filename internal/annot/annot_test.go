package annot

import (
	"testing"
)

func fixtureStore() *Store {
	s := NewStore()
	s.Add(Record{ID: "YAL001C", Name: "TFC3", Description: "transcription factor TFIIIC subunit"})
	s.Add(Record{ID: "YBR072W", Name: "HSP26", Description: "small heat shock protein"})
	s.Add(Record{ID: "YLL026W", Name: "HSP104", Description: "heat shock protein disaggregase"})
	s.Add(Record{ID: "YGR192C", Name: "TDH3", Description: "glycolysis glyceraldehyde-3-phosphate dehydrogenase"})
	s.Add(Record{ID: "YDR224C", Name: "HTB1", Description: "histone H2B cell wall unrelated"})
	return s
}

func TestStoreAddGetReplace(t *testing.T) {
	s := NewStore()
	s.Add(Record{ID: "G1", Name: "A"})
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	rec, ok := s.Get("g1")
	if !ok || rec.Name != "A" {
		t.Fatalf("Get = %+v, %v", rec, ok)
	}
	s.Add(Record{ID: "G1", Name: "B"})
	if s.Len() != 1 {
		t.Fatal("replace must not grow the store")
	}
	rec, _ = s.Get("G1")
	if rec.Name != "B" {
		t.Fatalf("replaced record = %+v", rec)
	}
	if _, ok := s.Get("NOPE"); ok {
		t.Fatal("missing ID should report !ok")
	}
}

func TestZeroValueStore(t *testing.T) {
	var s Store
	s.Add(Record{ID: "G1"})
	if s.Len() != 1 {
		t.Fatal("zero-value store must be usable")
	}
}

func TestSearchSingleTerm(t *testing.T) {
	s := fixtureStore()
	got := s.Search("heat")
	want := []string{"YBR072W", "YLL026W"}
	assertIDs(t, got, want)
}

func TestSearchAND(t *testing.T) {
	s := fixtureStore()
	got := s.Search("heat disaggregase")
	assertIDs(t, got, []string{"YLL026W"})
	if len(s.Search("heat glycolysis")) != 0 {
		t.Fatal("conjunction with no common match should be empty")
	}
}

func TestSearchOR(t *testing.T) {
	s := fixtureStore()
	got := s.Search("glycolysis|histone")
	assertIDs(t, got, []string{"YDR224C", "YGR192C"})
}

func TestSearchFieldRestriction(t *testing.T) {
	s := fixtureStore()
	// "heat" appears only in descriptions; restricting to name finds none.
	if len(s.Search("name:heat")) != 0 {
		t.Fatal("name:heat should not match")
	}
	assertIDs(t, s.Search("name:HSP26"), []string{"YBR072W"})
	assertIDs(t, s.Search("id:YGR192C"), []string{"YGR192C"})
	assertIDs(t, s.Search("desc:histone"), []string{"YDR224C"})
}

func TestSearchPrefixWildcard(t *testing.T) {
	s := fixtureStore()
	got := s.Search("name:HSP*")
	assertIDs(t, got, []string{"YBR072W", "YLL026W"})
	// Wildcard against description words.
	got = s.Search("desc:glyco*")
	assertIDs(t, got, []string{"YGR192C"})
}

func TestSearchNegation(t *testing.T) {
	s := fixtureStore()
	got := s.Search("heat -disaggregase")
	assertIDs(t, got, []string{"YBR072W"})
}

func TestSearchQuotedPhrase(t *testing.T) {
	s := fixtureStore()
	got := s.Search(`"cell wall"`)
	assertIDs(t, got, []string{"YDR224C"})
	// The unquoted version also matches YDR224C only, but quoting must not
	// match records containing the words separately. Add such a record.
	s.Add(Record{ID: "YZZ999W", Name: "ZZZ1", Description: "cell division wall not adjacent"})
	got = s.Search(`"cell wall"`)
	assertIDs(t, got, []string{"YDR224C"})
	got = s.Search("cell wall")
	assertIDs(t, got, []string{"YDR224C", "YZZ999W"})
}

func TestSearchCaseInsensitive(t *testing.T) {
	s := fixtureStore()
	assertIDs(t, s.Search("HEAT SHOCK"), []string{"YBR072W", "YLL026W"})
	assertIDs(t, s.Search("id:yal001c"), []string{"YAL001C"})
}

func TestSearchCommaSeparated(t *testing.T) {
	s := fixtureStore()
	// Users paste comma-separated gene lists; commas split like whitespace,
	// terms are ANDed, so use OR groups for lists.
	got := s.Search("TFC3|TDH3")
	assertIDs(t, got, []string{"YAL001C", "YGR192C"})
}

func TestSearchEmpty(t *testing.T) {
	s := fixtureStore()
	if got := s.Search(""); got != nil {
		t.Fatalf("empty query should match nothing, got %v", got)
	}
	if got := s.Search("   "); got != nil {
		t.Fatalf("blank query should match nothing, got %v", got)
	}
	q := ParseQuery("")
	if !q.Empty() {
		t.Fatal("empty parse should be Empty")
	}
}

func TestQueryMatchesDirect(t *testing.T) {
	q := ParseQuery("shock -histone")
	if !q.Matches(Record{ID: "X", Description: "heat shock"}) {
		t.Fatal("should match")
	}
	if q.Matches(Record{ID: "X", Description: "heat shock histone"}) {
		t.Fatal("negated term should exclude")
	}
	if q.Matches(Record{}) {
		t.Fatal("empty record should not match")
	}
}

func TestParseQueryOddInputs(t *testing.T) {
	// Bare operators should not crash or match everything.
	for _, expr := range []string{"-", "|", ":", "name:", "*", "\"\""} {
		q := ParseQuery(expr)
		if q.Matches(Record{ID: "YAL001C", Name: "TFC3", Description: "x"}) && !q.Empty() {
			t.Fatalf("degenerate query %q unexpectedly matched", expr)
		}
	}
}

func assertIDs(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
