//go:build !race

package testfds

const raceEnabled = false
