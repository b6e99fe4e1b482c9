//go:build race

package fleet

// raceEnabled shrinks TestSoakHeapSteady under the race detector.
const raceEnabled = true
