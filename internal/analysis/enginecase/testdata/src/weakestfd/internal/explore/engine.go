// Package explore stubs the explorer's Engine enum for the enginecase
// analyzer: its two engines plus a hypothetical newest one, and every switch
// must name all of them.
package explore

type Engine uint8

const (
	EngineSource Engine = iota
	EngineDPOR
	EngineNext
)

// Label is exhaustive with a panic default: the sanctioned shape.
func Label(e Engine) string {
	switch e {
	case EngineSource:
		return "source"
	case EngineDPOR:
		return "classic"
	case EngineNext:
		return "next"
	default:
		panic("unknown engine")
	}
}

// stale misses the newest engine; the default arm would silently absorb it.
func stale(e Engine) string {
	switch e { // want `switch over explore.Engine is not exhaustive: missing EngineNext`
	case EngineSource:
		return "source"
	case EngineDPOR:
		return "classic"
	default:
		return "source"
	}
}
