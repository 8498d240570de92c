//go:build race

package transport

// raceEnabled reports whether this test binary was built with -race.
// sync.Pool deliberately bypasses its cache at random under the race
// detector, and the detector's shadow memory swamps the heap, so buffer
// reuse and peak-memory assertions are skipped there.
const raceEnabled = true
