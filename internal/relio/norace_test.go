//go:build !race

package relio

const raceEnabled = false
