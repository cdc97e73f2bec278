package cluster

import (
	"context"
	"reflect"
	"sync"
	"testing"
)

// heldSquares is what the free list holds now: the cells of each square.
func heldSquares() []int {
	squares.mu.Lock()
	defer squares.mu.Unlock()
	held := make([]int, len(squares.free))
	for i, v := range squares.free {
		held[i] = len(v)
	}
	return held
}

// TestFreeSquaresPolicy walks one free list through a hand-over: a square is
// kept only while another build runs, the next build gets the same cells
// back, the smallest that fits is the one taken, the list keeps its largest
// squares and no more of them than builds run, and the last build to end
// leaves it empty.
func TestFreeSquaresPolicy(t *testing.T) {
	var f freeSquares
	sq := func(cells int) *sqMatrix { return &sqMatrix{v: make([]float64, cells)} }
	f.begin()
	f.end(sq(100))
	if len(f.free) != 0 {
		t.Fatalf("a lone build's square was kept: %d held", len(f.free))
	}
	f.begin() // A
	f.begin() // B
	a := sq(100)
	f.end(a)
	f.begin() // C, while B runs
	c := f.take(81)
	if len(c) != 81 || cap(c) != 100 || &c[0] != &a.v[0] {
		t.Fatalf("C got %d of %d cells, not A's square", len(c), cap(c))
	}
	if f.take(1) != nil {
		t.Fatal("one square handed out twice")
	}
	f.begin()              // D
	f.begin()              // E
	f.end(&sqMatrix{v: c}) // C
	f.end(sq(400))         // E
	if len(f.free) != 2 {
		t.Fatalf("%d squares held while two builds run, want 2", len(f.free))
	}
	if d := f.take(50); cap(d) != 100 {
		t.Fatalf("took a square of %d cells for 50, want the 100 that fits best", cap(d))
	} else {
		f.free = append(f.free, d[:cap(d)])
	}
	f.end(sq(900)) // B: one build left, so one square, the largest
	if len(f.free) != 1 || len(f.free[0]) != 900 {
		t.Fatalf("held %d squares after B ended, want only the 900-cell one", len(f.free))
	}
	f.end(nil) // D, the last, made no square
	if len(f.free) != 0 || f.running != 0 {
		t.Fatalf("the last build left %d squares and %d running", len(f.free), f.running)
	}
}

// gateCtx holds a build inside stage 1: its first Err call closes entered
// and every call waits for release.
type gateCtx struct {
	context.Context
	once              sync.Once
	entered, released chan struct{}
}

func newGateCtx() *gateCtx {
	return &gateCtx{Context: context.Background(), entered: make(chan struct{}), released: make(chan struct{})}
}

func (c *gateCtx) Err() error {
	c.once.Do(func() { close(c.entered) })
	<-c.released
	return nil
}

// TestHierarchicalCancelReturnsSquare: a build canceled in stage 1 or in
// stage 2 hands its square to the free list while another build runs, and
// once that one returns too the package holds no square.
func TestHierarchicalCancelReturnsSquare(t *testing.T) {
	if held := heldSquares(); len(held) != 0 {
		t.Fatalf("squares held before any build: %v", held)
	}
	gate := newGateCtx()
	release := sync.OnceFunc(func() { close(gate.released) })
	defer release() // a failure below must not leave the gated build waiting
	done := make(chan error, 1)
	go func() {
		_, err := HierarchicalCtx(gate, noisyRows(1, 100, 8, 0), PearsonDist, AverageLinkage)
		done <- err
	}()
	<-gate.entered

	// Stage 1: 200 rows are 50 blocks; the build stops at its 6th poll.
	stage1 := &pollCtx{Context: context.Background()}
	stage1.after.Store(5)
	if _, err := HierarchicalCtx(stage1, noisyRows(2, 200, 8, 0.05), PearsonDist, AverageLinkage); err != context.Canceled {
		t.Fatalf("build canceled in stage 1: err = %v", err)
	}
	if held := heldSquares(); !reflect.DeepEqual(held, []int{200 * 200}) {
		t.Fatalf("after a stage-1 cancel the free list holds %v, want that build's square", held)
	}
	// Stage 2: 300 rows are 75 blocks and two stage polls; the chain polls
	// once a merge and stops at its 11th. The 200² square does not fit, so
	// the build makes its own, and the list keeps the larger of the two.
	stage2 := &pollCtx{Context: context.Background()}
	stage2.after.Store(75 + 2 + 10)
	if _, err := HierarchicalCtx(stage2, noisyRows(3, 300, 8, 0.05), PearsonDist, AverageLinkage); err != context.Canceled {
		t.Fatalf("build canceled in stage 2: err = %v", err)
	}
	if polls := stage2.polls.Load(); polls != 75+2+11 {
		t.Fatalf("the stage-2 build polled %d times, want %d: it did not stop in the chain", polls, 75+2+11)
	}
	if held := heldSquares(); !reflect.DeepEqual(held, []int{300 * 300}) {
		t.Fatalf("after a stage-2 cancel the free list holds %v, want that build's square", held)
	}

	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if held := heldSquares(); len(held) != 0 {
		t.Fatalf("the last build returned and %v squares are still held", held)
	}
}

// TestHierarchicalSharedSquares: builds of three sizes and every linkage,
// six at a time, pass squares among themselves and still make the serial
// builds' trees to the bit (meaningful under -race: a square handed to two
// builds at once shows up there); once the last returns none is held.
func TestHierarchicalSharedSquares(t *testing.T) {
	inputs := [][][]float64{noisyRows(51, 260, 10, 0.05), noisyRows(52, 150, 10, 0), noisyRows(53, 200, 10, 0.15)}
	want := make([][]*Tree, len(inputs))
	for i, rows := range inputs {
		for _, linkage := range allLinkages {
			tree, err := HierarchicalCtx(context.Background(), rows, PearsonDist, linkage)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], tree)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				i, l := (g+it)%len(inputs), (g/2+it)%len(allLinkages)
				tree, err := HierarchicalCtx(context.Background(), inputs[i], PearsonDist, allLinkages[l])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(tree, want[i][l]) {
					t.Errorf("input %d, %v: a concurrent build's tree differs from the serial one", i, allLinkages[l])
					return
				}
			}
		}()
	}
	wg.Wait()
	if held := heldSquares(); len(held) != 0 {
		t.Fatalf("every build returned and %v squares are still held", held)
	}
}
