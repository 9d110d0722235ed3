//go:build race

package tiling

func init() { raceEnabled = true }
