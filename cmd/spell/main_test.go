package main

import (
	"os"
	"path/filepath"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

func TestRunDemoModuleQuery(t *testing.T) {
	if err := run("", true, "", 3, 10, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoQuery(t *testing.T) {
	if err := run("", true, "", -1, 10, 1); err == nil {
		t.Fatal("no query should error")
	}
}

func TestRunExplicitQueryAgainstFiles(t *testing.T) {
	dir := t.TempDir()
	u := synth.NewUniverse(80, 6, 9)
	var paths []string
	for i := 0; i < 2; i++ {
		ds := u.Generate(synth.DatasetSpec{Name: "d", NumExperiments: 8, Seed: int64(i + 1)})
		p := filepath.Join(dir, "d"+string(rune('0'+i))+".pcl")
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := microarray.WritePCL(f, ds); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, p)
	}
	query := u.Genes[0].ID + "," + u.Genes[1].ID
	if err := run(paths[0]+","+paths[1], false, query, -1, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := run("/no/such.pcl", false, query, -1, 5, 1); err == nil {
		t.Fatal("missing file should error")
	}
}
