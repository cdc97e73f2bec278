package ontology

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadOBO holds ReadOBO to the contract the repo's other parsers meet:
// no panic and nothing returned beside an error; an accepted ontology has a
// topological order and survives WriteOBO → ReadOBO with the same term IDs
// in the same order, and per term the same name, namespace, obsolete flag
// and parents. The seed corpus in testdata/fuzz holds valid stanzas
// (comments, part_of, obsolete terms, a repeated ID, Typedef stanzas, CRLF)
// and rejected ones (a cycle, an unknown parent, a term without an ID).
func FuzzReadOBO(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := ReadOBO(bytes.NewReader(data))
		if err != nil {
			if o != nil {
				t.Fatalf("ReadOBO returned an ontology beside its error %v", err)
			}
			return
		}
		if _, err := o.TopologicalOrder(); err != nil {
			t.Fatalf("an accepted ontology has no topological order: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteOBO(&buf, o); err != nil {
			t.Fatal(err)
		}
		back, err := ReadOBO(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("WriteOBO wrote what ReadOBO refuses (%v):\n%s", err, buf.Bytes())
		}
		ids := o.TermIDs()
		if got := back.TermIDs(); !slices.Equal(got, ids) {
			t.Fatalf("term IDs %q after the round trip, want %q", got, ids)
		}
		for _, id := range ids {
			a, b := o.Term(id), back.Term(id)
			pa, pb := slices.Sorted(slices.Values(a.Parents)), slices.Sorted(slices.Values(b.Parents))
			if a.Name != b.Name || a.Namespace != b.Namespace || a.Obsolete != b.Obsolete || !slices.Equal(pa, pb) {
				t.Fatalf("term %q is %+v after the round trip, want %+v", id, b, a)
			}
		}
	})
}

// FuzzReadAssociations: no panic, nothing returned beside an error, and
// accepted annotations survive WriteAssociations → ReadAssociations with the
// same genes and, per gene, the same terms. The seed corpus holds valid
// files (comments, CRLF, extra columns, repeated pairs) and rejected lines
// (one field, an empty term).
func FuzzReadAssociations(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadAssociations(bytes.NewReader(data))
		if err != nil {
			if a != nil {
				t.Fatalf("ReadAssociations returned annotations beside its error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteAssociations(&buf, a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAssociations(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("WriteAssociations wrote what ReadAssociations refuses (%v):\n%s", err, buf.Bytes())
		}
		genes := slices.Sorted(slices.Values(a.Genes()))
		if got := slices.Sorted(slices.Values(back.Genes())); !slices.Equal(got, genes) {
			t.Fatalf("genes %q after the round trip, want %q", got, genes)
		}
		for _, g := range genes {
			if got, want := back.TermsOf(g), a.TermsOf(g); !slices.Equal(got, want) {
				t.Fatalf("gene %q has terms %q after the round trip, want %q", g, got, want)
			}
		}
	})
}
