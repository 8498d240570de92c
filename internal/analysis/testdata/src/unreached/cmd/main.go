package main

import (
	"fmt"

	"fixture/unreached"
	impl "fixture/unreached/internal"
)

func main() {
	var e impl.Engine
	// The codec is not boxed: only its exposure keeps Size reached.
	c := unreached.New()
	fmt.Println(c != nil, e.Run(), impl.Level(2))
}
