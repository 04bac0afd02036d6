//go:build race

package comet_test

const raceEnabled = true
