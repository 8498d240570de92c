//go:build !race

package serve

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
