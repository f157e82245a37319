//go:build race

package store

// The race detector's instrumentation allocates, so the allocation pins
// do not hold under it.
func init() { raceEnabled = true }
