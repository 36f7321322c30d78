//go:build race

package compare

// raceEnabled reports that the race detector is on; sync.Pool then
// drops pooled items at random, so allocation pins do not hold.
const raceEnabled = true
