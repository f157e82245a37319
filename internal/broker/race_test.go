//go:build race

package broker

// The race detector makes sync.Pool drop items at random, so the
// allocation pins do not hold under it.
func init() { raceEnabled = true }
