//go:build race

package serve

// raceEnabled reports whether this test binary was built with -race. The
// detector's shadow memory swamps the heap, so heap assertions are skipped
// there.
const raceEnabled = true
