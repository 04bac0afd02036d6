//go:build !race

package comet_test

const raceEnabled = false
