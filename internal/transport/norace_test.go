//go:build !race

package transport

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
