//go:build race

package testfds

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pins skip themselves.
const raceEnabled = true
