package render

import (
	"image/color"
	"math"
	"math/rand"
	"testing"
)

func synthRows(nR, nC int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, nR)
	for i := range rows {
		row := make([]float64, nC)
		for c := range row {
			if rng.Intn(17) == 0 {
				row[c] = math.NaN()
			} else {
				row[c] = rng.NormFloat64() * 2
			}
		}
		rows[i] = row
	}
	return rows
}

// TestRenderHeatmapColOrder: a column permutation must move whole columns,
// pixel-exactly, in the zoom regime.
func TestRenderHeatmapColOrder(t *testing.T) {
	rows := synthRows(8, 4, 11)
	opt := HeatmapOptions{ColorMap: GreenBlackRed, Limit: 2}
	direct := NewCanvas(40, 40, color.RGBA{A: 255})
	RenderHeatmap(direct, Rect{X: 0, Y: 0, W: 40, H: 40}, rows, opt)

	order := []int{3, 2, 1, 0}
	permuted := NewCanvas(40, 40, color.RGBA{A: 255})
	opt.ColOrder = order
	RenderHeatmap(permuted, Rect{X: 0, Y: 0, W: 40, H: 40}, rows, opt)

	// Display column j of the permuted render == display column order[j]
	// of the direct render (both 10px wide here).
	for j, dc := range order {
		for y := 0; y < 40; y++ {
			for dx := 0; dx < 10; dx++ {
				got := permuted.Image().At(j*10+dx, y)
				want := direct.Image().At(dc*10+dx, y)
				if got != want {
					t.Fatalf("display col %d px (%d,%d): got %v, want %v", j, dx, y, got, want)
				}
			}
		}
	}
}
