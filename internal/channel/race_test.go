//go:build race

package channel

// raceEnabled reports whether this test binary was built with -race.
// sync.Pool deliberately bypasses its cache at random under the race
// detector, so allocation-count assertions are skipped there.
const raceEnabled = true
