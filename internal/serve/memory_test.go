package serve

import (
	"runtime"
	"testing"

	"rainbar/internal/workload"
)

// TestTerminalSessionsReleaseDrivers: a terminal session keeps only what
// its reads use (id, state, error, result, stats), not its driver. Sixty
// served sessions at the 480x270 defaults with a 200 B payload must leave
// under 4 KB of heap each after GC. Keeping the driver (transport
// session, codec, last round's channel) cost about 30 KB each.
func TestTerminalSessionsReleaseDrivers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory swamps the heap being measured")
	}
	const sessions = 60
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle also empties sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	srv := NewServer(Config{MaxSessions: sessions, Workers: 2})
	defer srv.Stop()
	before := heap()
	for i := 0; i < sessions; i++ {
		if _, err := srv.Submit(SessionSpec{Payload: workload.Text(200, int64(i)), MaxRounds: 8}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Quiesce()
	per := (heap() - before) / sessions
	for _, info := range srv.Sessions() {
		if info.State != StateDone {
			t.Fatalf("session %d ended %s (%s)", info.ID, info.State, info.Err)
		}
	}
	if per >= 4096 {
		t.Fatalf("each terminal session retains %d B of heap, want < 4096", per)
	}
	t.Logf("retained heap per terminal session: %d B", per)
}
