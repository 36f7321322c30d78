//go:build !race

package api

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random: an allocation count that depends on a pool hit is measured
// only without it.
const raceEnabled = false
