//go:build race

package eval

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pins skip themselves.
const raceEnabled = true
