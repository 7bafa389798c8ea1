//go:build race

package proptest

func init() { raceEnabled = true }
