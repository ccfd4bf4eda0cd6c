//go:build !race

package chase

const raceEnabled = false
