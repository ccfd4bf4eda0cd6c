//go:build race

package schema

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pins skip themselves.
const raceEnabled = true
