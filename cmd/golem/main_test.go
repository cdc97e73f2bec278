package main

import (
	"os"
	"path/filepath"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/synth"
)

func TestRunDemo(t *testing.T) {
	mapOut := filepath.Join(t.TempDir(), "map.png")
	if err := run("", "", "", true, 0.05, mapOut, 1, 5, 1); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(mapOut)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("map PNG empty")
	}
}

func TestRunFromFiles(t *testing.T) {
	dir := t.TempDir()
	// Build a small workspace on disk: OBO + associations + gene list.
	u := synth.NewUniverse(120, 8, 31)
	onto, ann, err := u.Ontology(33)
	if err != nil {
		t.Fatal(err)
	}
	oboPath := filepath.Join(dir, "o.obo")
	f, _ := os.Create(oboPath)
	if err := ontology.WriteOBO(f, onto); err != nil {
		t.Fatal(err)
	}
	f.Close()
	assocPath := filepath.Join(dir, "a.tsv")
	f, _ = os.Create(assocPath)
	if err := ontology.WriteAssociations(f, ann); err != nil {
		t.Fatal(err)
	}
	f.Close()
	genesPath := filepath.Join(dir, "genes.txt")
	f, _ = os.Create(genesPath)
	if err := microarray.WriteGeneList(f, u.ModuleGeneIDs(3), "selection"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mapOut := filepath.Join(dir, "map.png")
	if err := run(oboPath, assocPath, genesPath, false, 0.05, mapOut, 1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(mapOut); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingFiles(t *testing.T) {
	if err := run("/no/o.obo", "/no/a.tsv", "/no/g.txt", false, 0.05, "", 1, 3, 1); err == nil {
		t.Fatal("missing files should error")
	}
}
