//go:build race

package relio

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pins skip themselves.
const raceEnabled = true
