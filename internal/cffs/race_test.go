//go:build race

package cffs

// raceEnabled reports a -race build, under which sync.Pool drops a
// share of its Puts at random: pooled scratch is then not reused every
// time, and allocation counts that rely on it are not exact.
const raceEnabled = true
