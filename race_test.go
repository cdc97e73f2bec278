//go:build race

package forestview

// The race detector drops a share of what goes into a sync.Pool, so
// allocation counts are not the program's under it.
func init() { raceEnabled = true }
