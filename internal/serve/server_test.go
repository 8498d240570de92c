package serve

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"rainbar/internal/transport"
)

// gateDriver blocks inside Step until released, letting tests hold
// sessions live deterministically.
type gateDriver struct {
	gate    chan struct{}
	stepped int
}

type gateFactory struct{ gate chan struct{} }

func (f gateFactory) New(SessionSpec) (Driver, error) { return &gateDriver{gate: f.gate}, nil }
func (f gateFactory) Restore(SessionSpec, []byte) (Driver, error) {
	return &gateDriver{gate: f.gate}, nil
}

func (d *gateDriver) Step() (StepInfo, error) {
	<-d.gate
	d.stepped++
	return StepInfo{Done: d.stepped >= 2, Progress: true, Air: time.Millisecond}, nil
}
func (d *gateDriver) Snapshot() ([]byte, error) { return []byte{byte(d.stepped)}, nil }
func (d *gateDriver) Result() ([]byte, *transport.Stats, error) {
	return []byte("ok"), &transport.Stats{}, nil
}

func TestSubmitOverloadBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s := NewServer(Config{MaxSessions: 2, Workers: 1, Factory: gateFactory{gate: gate}})
	defer s.Stop()
	if _, err := s.Submit(SessionSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SessionSpec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SessionSpec{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submit: %v, want ErrOverloaded", err)
	}
	// Releasing the fleet frees capacity again.
	close(gate)
	s.Drain()
	if got := s.Health().Live; got != 0 {
		t.Fatalf("live after drain = %d", got)
	}
}

// slowDriver never finishes on its own and paces each round at ~1ms, so
// tests can poke a reliably-live session and end it with Cancel.
type slowDriver struct{}

type slowFactory struct{}

func (slowFactory) New(SessionSpec) (Driver, error)             { return slowDriver{}, nil }
func (slowFactory) Restore(SessionSpec, []byte) (Driver, error) { return slowDriver{}, nil }

func (slowDriver) Step() (StepInfo, error) {
	time.Sleep(time.Millisecond)
	return StepInfo{Progress: true, Air: time.Millisecond}, nil
}
func (slowDriver) Snapshot() ([]byte, error) { return []byte{0xAB}, nil }
func (slowDriver) Result() ([]byte, *transport.Stats, error) {
	return nil, nil, ErrSessionActive
}

func TestRegistryErrors(t *testing.T) {
	s := NewServer(Config{Workers: 1, Factory: slowFactory{}})
	id, err := s.Submit(SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Info(99); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Info(99): %v", err)
	}
	if err := s.Cancel(99); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("Cancel(99): %v", err)
	}
	if _, _, err := s.Result(id); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("Result while live: %v", err)
	}
	if err := s.Remove(id); !errors.Is(err, ErrSessionActive) {
		t.Fatalf("Remove while live: %v", err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatalf("Cancel live: %v", err)
	}
	s.Drain()
	if err := s.Cancel(id); !errors.Is(err, ErrSessionTerminal) {
		t.Fatalf("Cancel terminal: %v", err)
	}
	if _, err := s.Snapshot(id); !errors.Is(err, ErrSessionTerminal) {
		t.Fatalf("Snapshot terminal: %v", err)
	}
	if _, _, err := s.Result(id); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Result after drain: %v, want ErrCanceled", err)
	}
}

// TestStopPreservesLiveSessionsForMigration is the migration story: Stop a
// daemon mid-fleet, snapshot what is left, restore into a second daemon,
// and every session still finishes.
func TestStopPreservesLiveSessionsForMigration(t *testing.T) {
	var f fakeFactory
	s := NewServer(Config{Workers: 2, Factory: f})
	var ids []uint64
	for i := 0; i < 8; i++ {
		id, err := s.Submit(SessionSpec{Payload: []byte{byte(i)}, MaxRounds: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Stop() // halts at round boundaries; sessions are mid-transfer
	if _, err := s.Submit(SessionSpec{}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop: %v", err)
	}

	s2 := NewServer(Config{Workers: 2, Factory: f})
	migrated := 0
	for _, id := range ids {
		snap, err := s.Snapshot(id)
		if err != nil {
			// Finished before the stop landed; its result is final.
			continue
		}
		if _, err := s2.Restore(snap); err != nil {
			t.Fatalf("restore migrated session %d: %v", id, err)
		}
		migrated++
	}
	if migrated == 0 {
		t.Fatal("no session was still live at stop; migration path untested")
	}
	s2.Drain()
	for _, info := range s2.Sessions() {
		if info.State != StateDone {
			t.Fatalf("migrated session %d ended %s (%s)", info.ID, info.State, info.Err)
		}
	}
}

// TestServerEndToEndTransport runs real transfers through the server and
// proves a mid-run server-level snapshot restores to the same payload.
func TestServerEndToEndTransport(t *testing.T) {
	spec := propSpec("drop=0.6,seed=11", "combine")
	s := NewServer(Config{Workers: 2})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot while live; tolerate the transfer finishing first.
	snap, snapErr := s.Snapshot(id)
	s.Drain()
	payload, stats, err := s.Result(id)
	if err != nil {
		t.Fatalf("transfer failed: %v", err)
	}
	if !bytes.Equal(payload, spec.Payload) {
		t.Fatal("payload not bit-exact through the server")
	}
	if stats.Rounds < 2 {
		t.Fatalf("expected a lossy multi-round transfer, got %d rounds", stats.Rounds)
	}

	if snapErr == nil {
		s2 := NewServer(Config{Workers: 1})
		rid, err := s2.Restore(snap)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		s2.Drain()
		rPayload, rStats, err := s2.Result(rid)
		if err != nil {
			t.Fatalf("restored transfer failed: %v", err)
		}
		if !bytes.Equal(rPayload, spec.Payload) {
			t.Fatal("restored payload not bit-exact")
		}
		if !reflect.DeepEqual(rStats, stats) {
			t.Fatalf("restored stats differ:\n got %+v\nwant %+v", rStats, stats)
		}
	}
}

// TestCameraFieldsDefaultIndependently: a spec that sets the camera rate
// and leaves the readout unset (or the other way round) gets the default
// for the missing field and delivers bit-exact through a server, rather
// than failing camera validation ("readout fraction 0.00").
func TestCameraFieldsDefaultIndependently(t *testing.T) {
	rateOnly := propSpec("", "off")
	rateOnly.CamRateFPS = 60
	readoutOnly := propSpec("", "off")
	readoutOnly.CamReadout = 0.6
	for name, spec := range map[string]SessionSpec{"rate only": rateOnly, "readout only": readoutOnly} {
		s := NewServer(Config{Workers: 1})
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("%s: submit: %v", name, err)
		}
		s.Drain()
		payload, _, err := s.Result(id)
		if err != nil {
			t.Fatalf("%s: transfer failed: %v", name, err)
		}
		if !bytes.Equal(payload, spec.Payload) {
			t.Fatalf("%s: payload not bit-exact through the server", name)
		}
	}
}

// TestCancelStopsASession pins that cancelation terminates without
// further rounds and reports ErrCanceled.
func TestCancelStopsASession(t *testing.T) {
	s := NewServer(Config{Workers: 1, Factory: slowFactory{}})
	id, err := s.Submit(SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	info, err := s.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", info.State)
	}
	if _, _, err := s.Result(id); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Result of canceled: %v", err)
	}
}

// TestSnapshotEnvelopeTamper pins the classified decode errors.
func TestSnapshotEnvelopeTamper(t *testing.T) {
	env, err := EncodeSnapshot(&Snapshot{ID: 3, State: StateStalled, Spec: SessionSpec{Payload: []byte("x")}, DriverState: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(env)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != 3 || snap.State != StateStalled || string(snap.DriverState) != "\x01\x02\x03" {
		t.Fatalf("round trip lost fields: %+v", snap)
	}

	tamper := func(mutate func([]byte) []byte) error {
		_, err := DecodeSnapshot(mutate(append([]byte(nil), env...)))
		return err
	}
	if err := tamper(func(b []byte) []byte { return b[:10] }); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated header: %v", err)
	}
	if err := tamper(func(b []byte) []byte { b[0] = 'X'; return b }); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic: %v", err)
	}
	if err := tamper(func(b []byte) []byte { b[4] = 99; return b }); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("bad version: %v", err)
	}
	if err := tamper(func(b []byte) []byte { b[20] ^= 0x10; return b }); !errors.Is(err, ErrSnapshotChecksum) {
		t.Fatalf("bit rot: %v", err)
	}
	if err := tamper(func(b []byte) []byte { return b[:len(b)-2] }); !errors.Is(err, ErrSnapshotChecksum) && !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("truncated tail: %v", err)
	}
}

// TestWorkerCountInvariance pins the determinism contract at the server
// level: the same fleet produces identical per-session results at any
// worker count.
func TestWorkerCountInvariance(t *testing.T) {
	run := func(workers int) []SessionInfo {
		s := NewServer(Config{Workers: workers, Factory: fakeFactory{}})
		for i := 0; i < 40; i++ {
			if _, err := s.Submit(SessionSpec{Payload: []byte{byte(i)}, MaxRounds: 1 + i%4}); err != nil {
				t.Fatal(err)
			}
		}
		s.Drain()
		return s.Sessions()
	}
	if got, want := run(8), run(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet results differ across worker counts:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentSnapshotIsConsistent checks a snapshot taken while a
// session is being stepped lands exactly on a round boundary.
func TestConcurrentSnapshotIsConsistent(t *testing.T) {
	s := NewServer(Config{Workers: 2, Factory: slowFactory{}})
	id, err := s.Submit(SessionSpec{Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				snap, err := s.Snapshot(id)
				if err != nil {
					t.Errorf("snapshot live session: %v", err)
					return
				}
				decoded, err := DecodeSnapshot(snap)
				if err != nil {
					t.Errorf("snapshot decode: %v", err)
					return
				}
				if len(decoded.DriverState) != 1 || decoded.DriverState[0] != 0xAB {
					t.Errorf("driver state corrupted: %v", decoded.DriverState)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	s.Drain()
}
