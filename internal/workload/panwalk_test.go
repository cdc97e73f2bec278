package workload

import (
	"fmt"
	"net/url"
	"reflect"
	"testing"
	"time"
)

// parseWindow extracts dataset and row window from a heatmap op path.
func parseWindow(t *testing.T, path string) (ds, from, to int) {
	t.Helper()
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	q := u.Query()
	if _, err := fmt.Sscanf(q.Get("dataset"), "%d", &ds); err != nil {
		t.Fatalf("bad dataset in %q", path)
	}
	if _, err := fmt.Sscanf(q.Get("rows"), "%d:%d", &from, &to); err != nil {
		t.Fatalf("bad rows in %q", path)
	}
	return ds, from, to
}

// TestPanwalkDeterministic: the panwalk plan is a pure function of its
// spec, like every other plan.
func TestPanwalkDeterministic(t *testing.T) {
	spec := Spec{Rate: 300, Duration: 2 * time.Second, Seed: 7, PaneRows: []int{600}}
	a, err := NewPanwalkPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPanwalkPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different panwalk plans")
	}
	spec.Seed = 8
	c, err := NewPanwalkPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Ops, c.Ops) {
		t.Fatal("different seeds produced identical panwalk plans")
	}
}

// TestPanwalkAdjacency: every op is a heatmap request, every window is in
// bounds, and consecutive windows of a pane are *correlated*: each is the
// previous window's pan neighbour (sharing an edge) or its zoom
// parent/child (sharing its center region) — exactly the candidate set the
// server's prefetcher renders ahead. Validating the geometry here is what
// makes the forestbench prefetch gate meaningful: a walk the prefetcher
// cannot predict would measure nothing.
func TestPanwalkAdjacency(t *testing.T) {
	spec := Spec{Rate: 500, Duration: 4 * time.Second, Seed: 11, PaneRows: []int{600}, TileRows: 64}
	plan, err := NewPanwalkPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Ops) == 0 {
		t.Fatal("no ops")
	}
	pf, pt := -1, -1
	adjacent, zooms := 0, 0
	for i, op := range plan.Ops {
		if op.Endpoint != "heatmap" {
			t.Fatalf("op %d endpoint %q, want heatmap", i, op.Endpoint)
		}
		_, from, to := parseWindow(t, op.Path)
		if from < 0 || to <= from || to > 600 {
			t.Fatalf("op %d window %d:%d out of bounds", i, from, to)
		}
		if pf >= 0 {
			switch {
			case from == pt || to == pf:
				adjacent++ // pan: shares an edge with the previous window
			case from == pf && to == pt:
				// edge-pinned repeat (whole-pane window, or a bounce)
			default:
				// zoom: the new window contains or is contained by the old
				// one's center region.
				center := (pf + pt) / 2
				if from > center || to < center {
					t.Fatalf("op %d window %d:%d unrelated to predecessor %d:%d", i, from, to, pf, pt)
				}
				zooms++
			}
		}
		pf, pt = from, to
	}
	if adjacent < len(plan.Ops)/2 {
		t.Fatalf("only %d/%d steps were adjacent pans", adjacent, len(plan.Ops))
	}
	if zooms == 0 {
		t.Fatal("walk never zoomed")
	}
}

// TestPanwalkValidation mirrors NewPlan's input checking.
func TestPanwalkValidation(t *testing.T) {
	base := Spec{Rate: 100, Duration: time.Second, PaneRows: []int{100}}
	for name, mutate := range map[string]func(*Spec){
		"zero rate":     func(s *Spec) { s.Rate = 0 },
		"zero duration": func(s *Spec) { s.Duration = 0 },
		"no panes":      func(s *Spec) { s.PaneRows = nil },
		"empty pane":    func(s *Spec) { s.PaneRows = []int{100, 0} },
	} {
		t.Run(name, func(t *testing.T) {
			s := base
			mutate(&s)
			if _, err := NewPanwalkPlan(s); err == nil {
				t.Fatal("want error")
			}
		})
	}
}
