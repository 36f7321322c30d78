//go:build !race

package compare

const raceEnabled = false
