//go:build !race

package channel

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
