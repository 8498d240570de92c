// Package impl holds the fixture's internal types.
package impl

import "strconv"

// Codec is aliased by the facade.
type Codec struct{ n int }

// NewCodec is reached from the facade's New.
func NewCodec() *Codec { return &Codec{n: 1} }

// Size is an exported method of a facade-aliased type: public API, even
// with no caller in the module.
func (c *Codec) Size() int { return c.n }

// Engine is internal, and no public signature exposes it.
type Engine struct{}

// Run is called by main.
func (Engine) Run() int { return decodeInto(nil) + Total() }

func (Engine) Spare() {} // want `fixture/unreached/internal.\(Engine\).Spare is reached by no entry point`

// decodeInto is the scratch half of a twin, and the only half called.
func decodeInto(dst []int) int { return len(dst) }

func decode() int { return decodeInto(nil) } // want `fixture/unreached/internal.decode is reached by no entry point`

// Kernels stores a function in a package-level table; nothing calls it
// by name.
var Kernels = map[string]func() int{"one": one}

func one() int { return 1 }

type shape interface{ area() int }

type square struct{ side int }

// area is reached only through the interface call in Total.
func (q square) area() int { return q.side * q.side }

// Total calls through the in-module interface.
func Total() int {
	var s shape = square{side: 2}
	return s.area()
}

// Level is printed by main through fmt, which calls String through an
// interface the module never names.
type Level int

func (l Level) String() string { return "level-" + strconv.Itoa(int(l)) }

func init() { setup() }

func setup() {}
