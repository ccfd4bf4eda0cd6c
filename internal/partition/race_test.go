//go:build race

package partition

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pins skip themselves.
const raceEnabled = true
