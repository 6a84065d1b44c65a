//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put back, so allocation counts are not meaningful.
const raceEnabled = true
