package cluster

// scanBlock is the cells skipAsm tests at a time, and the most nearest's
// scalar loop reads after each skip.
const scanBlock = 16

// nearest returns the index of the first strict minimum of row below
// row[best], or best when no cell is below it: the scalar loop
//
//	for j, d := range row { if d < bd { bd, best = d, j } }
//
// seeded with bd = row[best], whose answer it is for every row — NaN cells
// and a NaN seed included, which no comparison picks or beats, and ±0,
// which tie. skipBelow passes over the blocks no cell of which is below
// the current minimum, so the scalar loop reads only blocks that improve it.
func nearest(row []float64, best int) int {
	bd := row[best]
	for j := 0; j < len(row); {
		j = skipBelow(row, j, bd)
		end := min(j+scanBlock, len(row))
		for k, d := range row[j:end] {
			if d < bd {
				bd, best = d, j+k
			}
		}
		j = end
	}
	return best
}

// skipGo is skipBelow's contract in Go, four cells a test: it returns the
// first j' ≥ j such that no cell of row[j:j'] is below bd and either the
// four cells from j' hold one that is, or fewer than four are left.
func skipGo(row []float64, j int, bd float64) int {
	for ; j+4 <= len(row); j += 4 {
		if q := row[j : j+4]; q[0] < bd || q[1] < bd || q[2] < bd || q[3] < bd {
			return j
		}
	}
	return j
}
