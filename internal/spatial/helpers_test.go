package spatial

import "repro/internal/vec"

// v2 is a keyed-literal shorthand for test fixtures.
func v2(x, y float64) vec.Vec2 { return vec.Vec2{X: x, Y: y} }
