package serve

import (
	"errors"
	"strings"
	"testing"
	"time"

	"rainbar/internal/serve/journal"
)

// TestChaosKillRecover is the headline acceptance test: crash the
// daemon at seed-chosen record boundaries (clean cuts and torn tails),
// Recover from the surviving journal prefix, and demand bit-identical
// delivery from every recovered session across the faults × recovery
// matrix.
func TestChaosKillRecover(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recovery string
		torn     bool
		fsync    journal.Fsync
	}{
		{"combine-clean-cut", "combine", false, journal.FsyncAlways},
		{"combine-torn-tail", "combine", true, journal.FsyncInterval},
		{"off-torn-tail", "off", true, journal.FsyncOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := runChaos(chaosConfig{
				Seed:     41,
				Dir:      t.TempDir(),
				Recovery: tc.recovery,
				TornTail: tc.torn,
				Fsync:    tc.fsync,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mismatches != 0 {
				t.Fatalf("%d recovered sessions diverged from the uncrashed run (result %+v)", res.Mismatches, res)
			}
			if res.Resurrected != 0 {
				t.Fatalf("%d terminal sessions resurrected (result %+v)", res.Resurrected, res)
			}
			if len(res.Kills) < 3 || res.Checkpointed == 0 {
				t.Fatalf("campaign too weak to mean anything: %+v", res)
			}
		})
	}
}

// TestChaosDeterministic: the same seed must kill at the same records
// and produce the same aggregate result.
func TestChaosDeterministic(t *testing.T) {
	run := func() *chaosResult {
		res, err := runChaos(chaosConfig{Seed: 7, Dir: t.TempDir(), Fleet: 2, Kills: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Records != b.Records || len(a.Kills) != len(b.Kills) ||
		a.Checkpointed != b.Checkpointed || a.Resubmitted != b.Resubmitted {
		t.Fatalf("same seed, different campaigns:\n%+v\n%+v", a, b)
	}
	for i := range a.Kills {
		if a.Kills[i] != b.Kills[i] {
			t.Fatalf("kill points diverged: %v vs %v", a.Kills, b.Kills)
		}
	}
}

func chaosSpec(seed int64) SessionSpec {
	return chaosConfig{Seed: seed}.withDefaults().specFor(0)
}

// TestWorkerPanicIsolation: a panicking driver fails its own session
// with ErrPanicked while the other sessions deliver untouched.
func TestWorkerPanicIsolation(t *testing.T) {
	victim := chaosSpec(11)
	bystander := chaosConfig{Seed: 11}.withDefaults().specFor(1)
	srv := NewServer(Config{
		Workers: 2,
		Factory: faultFactory{
			Inner: DefaultFactory(nil),
			Mode:  modePanic,
			Round: 1,
			Only:  func(spec SessionSpec) bool { return string(spec.Payload) == string(victim.Payload) },
		},
	})
	vid, err := srv.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	bid, err := srv.Submit(bystander)
	if err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	defer srv.Drain()

	if _, _, err := srv.Result(vid); !errors.Is(err, ErrPanicked) {
		t.Fatalf("victim result error = %v, want ErrPanicked", err)
	} else if !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("panic cause lost: %v", err)
	}
	payload, _, err := srv.Result(bid)
	if err != nil {
		t.Fatalf("bystander failed: %v", err)
	}
	if string(payload) != string(bystander.Payload) {
		t.Fatal("bystander payload corrupted")
	}
	// The server survived both: it still accepts and completes work.
	id3, err := srv.Submit(bystander)
	if err != nil {
		t.Fatalf("submit after panic: %v", err)
	}
	srv.Quiesce()
	if _, _, err := srv.Result(id3); err != nil {
		t.Fatalf("post-panic session failed: %v", err)
	}
}

// quiesced adapts a Quiesce-completion channel to a poll condition.
func quiesced(done chan struct{}) func() bool {
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// advanceUntil drives a ManualWatch forward in steps until cond holds
// (watchdog selects are registered asynchronously by workers, so tests
// advance repeatedly rather than once).
func advanceUntil(t *testing.T, watch *ManualWatch, step time.Duration, cond func() bool) {
	t.Helper()
	for i := 0; i < 30000; i++ {
		if cond() {
			return
		}
		watch.Advance(step)
		// Yield real time so the workers between fake-clock waits can run;
		// a tight Advance loop would starve them.
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("condition never held while advancing the watch")
}

// TestSlowStepDeadline: a wedged round trips the deadline watchdog on
// the injected clock, fails only its session, and leaves the fleet
// serving.
func TestSlowStepDeadline(t *testing.T) {
	watch := NewManualWatch()
	defer watch.Flush()
	slow := chaosSpec(13)
	srv := NewServer(Config{
		Workers:       2,
		RoundDeadline: time.Minute,
		Watch:         watch,
		Factory: faultFactory{
			Inner: DefaultFactory(nil),
			Mode:  modeSlow,
			Round: 1,
			Watch: watch,
			Only:  func(spec SessionSpec) bool { return string(spec.Payload) == string(slow.Payload) },
		},
	})
	id, err := srv.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Quiesce(); close(done) }()
	advanceUntil(t, watch, time.Minute, quiesced(done))
	srv.Drain()
	if _, _, err := srv.Result(id); !errors.Is(err, ErrRoundDeadline) {
		t.Fatalf("result error = %v, want ErrRoundDeadline", err)
	}
}

// TestTransientRetry: a driver failing transiently is retried with
// backoff on the injected clock and still delivers bit-exact.
func TestTransientRetry(t *testing.T) {
	watch := NewManualWatch()
	defer watch.Flush()
	spec := chaosSpec(17)
	srv := NewServer(Config{
		Workers: 1,
		Watch:   watch,
		Retry:   RetryPolicy{MaxRetries: 3},
		Factory: faultFactory{
			Inner: DefaultFactory(nil),
			Mode:  modeTransient,
			Round: 1,
			Fails: 2,
		},
	})
	id, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Quiesce(); close(done) }()
	advanceUntil(t, watch, time.Second, quiesced(done))
	srv.Drain()
	payload, _, err := srv.Result(id)
	if err != nil {
		t.Fatalf("retried session failed: %v", err)
	}
	if string(payload) != string(spec.Payload) {
		t.Fatal("retried session delivered wrong payload")
	}
}

// TestTransientRetryExhaustion: more failures than the budget fails the
// session with the transient error as cause.
func TestTransientRetryExhaustion(t *testing.T) {
	watch := NewManualWatch()
	defer watch.Flush()
	srv := NewServer(Config{
		Workers: 1,
		Watch:   watch,
		Retry:   RetryPolicy{MaxRetries: 2},
		Factory: faultFactory{
			Inner: DefaultFactory(nil),
			Mode:  modeTransient,
			Round: 1,
			Fails: 100,
		},
	})
	id, err := srv.Submit(chaosSpec(19))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Quiesce(); close(done) }()
	advanceUntil(t, watch, time.Second, quiesced(done))
	srv.Drain()
	if _, _, err := srv.Result(id); !Transient(err) {
		t.Fatalf("result error = %v, want the transient cause", err)
	}
}

// TestDiskFullDegradesNotDies: a filling disk poisons the journal but
// the daemon keeps completing sessions; health reports degraded until
// a compaction on a refilled disk heals it.
func TestDiskFullDegradesNotDies(t *testing.T) {
	fs := newBudgetFS(256)
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Open: fs.Open, Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := NewServer(Config{Workers: 1, Journal: j, CheckpointEvery: 1})
	cfg := chaosConfig{Seed: 23}.withDefaults()
	ids := make([]uint64, 2)
	for i := range ids {
		if ids[i], err = srv.Submit(cfg.specFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Quiesce()
	defer srv.Drain()
	for _, id := range ids {
		if _, _, err := srv.Result(id); err != nil {
			t.Fatalf("session %d failed under disk pressure: %v", id, err)
		}
	}
	h := srv.Health()
	if h.Ready() || !strings.Contains(h.Journal, "disk full") {
		t.Fatalf("health = %+v, want degraded by disk-full journal", h)
	}
	// Operator clears space: the next retirement triggers compaction,
	// which rewrites the journal and heals the daemon.
	fs.Refill(1 << 20)
	id, err := srv.Submit(cfg.specFor(0))
	if err != nil {
		t.Fatal(err)
	}
	srv.Quiesce()
	if _, _, err := srv.Result(id); err != nil {
		t.Fatalf("post-refill session failed: %v", err)
	}
	if h := srv.Health(); !h.Ready() {
		t.Fatalf("health after refill+compaction = %+v, want ready", h)
	}
}
