// Package unreached is the RB-U1 fixture's public facade: its exported
// functions, and the exported methods of every type its API exposes, are
// entry points alongside cmd's main.
package unreached

import impl "fixture/unreached/internal"

// Codec aliases an internal type, so the type's exported methods are
// public API.
type Codec = impl.Codec

// New is an exported function of a public package: a root.
func New() *Codec { return impl.NewCodec() }

func onlyTested() int { return 1 } // want `fixture/unreached.onlyTested is reached by no entry point`
