//go:build race

package dsm

// raceEnabled skips allocation counts under the race detector, which
// allocates on its own.
const raceEnabled = true
