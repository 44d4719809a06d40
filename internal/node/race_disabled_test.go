//go:build !race

package node

const raceEnabled = false

const raceRepeats = 1
