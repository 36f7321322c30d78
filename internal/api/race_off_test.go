//go:build !race

package api

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random and whose instrumentation slows copies and walks unevenly: an
// allocation count that depends on a pool hit, and a span's share of a
// request, are measured only without it.
const raceEnabled = false
