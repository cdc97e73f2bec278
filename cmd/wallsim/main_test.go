package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunSmallWall(t *testing.T) {
	out := filepath.Join(t.TempDir(), "wall.png")
	if err := run("", 2, 1, 160, 120, 2, out, 200, 2, 1); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("composite empty")
	}
}

func TestRunPresets(t *testing.T) {
	// The desktop preset should work quickly with a small scene.
	if err := run("desktop", 0, 0, 0, 0, 1, "", 150, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := run("nope", 1, 1, 8, 8, 1, "", 100, 1, 1); err == nil {
		t.Fatal("unknown preset should error")
	}
}

// A run that would render no frame or draw no pane is refused before any
// work: the mean over zero frames is NaN, and a negative pane count is no
// slice bound.
func TestRunRejectsEmptyRuns(t *testing.T) {
	for _, tc := range []struct {
		name          string
		frames, nData int
	}{
		{"frames-0", 0, 2},
		{"frames-negative", -3, 2},
		{"datasets-0", 1, 0},
		{"datasets-negative", 1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := run("", 1, 1, 8, 8, tc.frames, "", 100, tc.nData, 1); err == nil {
				t.Fatalf("frames=%d datasets=%d: want an error", tc.frames, tc.nData)
			}
		})
	}
}
