//go:build !race

package schema

const raceEnabled = false
