//go:build !race

package cffs

const raceEnabled = false
