// Package c exercises enginecase from a consumer package: dispatch sites
// outside internal/explore are held to the same exhaustiveness rule.
package c

import "weakestfd/internal/explore"

func dispatch(e explore.Engine) int {
	switch e { // want `switch over explore.Engine is not exhaustive: missing EngineDPOR, EngineNext`
	case explore.EngineSource:
		return 0
	}
	return -1
}

func full(e explore.Engine) int {
	switch e {
	case explore.EngineSource, explore.EngineDPOR:
		return 0
	case explore.EngineNext:
		return 1
	default:
		panic("unknown engine")
	}
}

// otherSwitches over non-Engine types are never enginecase's business.
func otherSwitches(n int, s string) int {
	switch n {
	case 1:
		return 1
	}
	switch s {
	case "x":
		return 2
	}
	switch {
	case n > 3:
		return 3
	}
	return 0
}

func audited(e explore.Engine) int {
	//lint:fdlint enginecase -- prototype dispatcher, unreachable from sweeps
	switch e {
	case explore.EngineSource:
		return 0
	}
	return -1
}
