//go:build !race

package dsm

const raceEnabled = false
