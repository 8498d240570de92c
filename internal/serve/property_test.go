package serve

import (
	"bytes"
	"reflect"
	"testing"

	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/transport"
	"rainbar/internal/workload"
)

// propGeometry is the property matrix's screen: small enough that the
// faults x recovery matrix stays fast, large enough for a valid layout.
const (
	propW, propH, propBlock = 400, 192, 8
	propRounds              = 4
)

// framesOfText returns seeded text filling the given number of frames of
// a w×h screen at the given block size. It panics on geometry errors, so
// fuzz seed phases can use it too.
func framesOfText(w, h, block, frames int, seed int64) []byte {
	geo, err := layout.NewGeometry(w, h, block)
	if err != nil {
		panic(err)
	}
	codec, err := core.NewCodec(core.Config{Geometry: geo, DisplayRate: 10})
	if err != nil {
		panic(err)
	}
	return workload.Text(frames*codec.FrameCapacity(), seed)
}

// propSpec builds one matrix point's session spec with a ~3-chunk payload.
// It panics on geometry errors so the fuzz seed phase can use it too.
func propSpec(faultSpec, recovery string) SessionSpec {
	return SessionSpec{
		Payload:   framesOfText(propW, propH, propBlock, 2, 7),
		ScreenW:   propW,
		ScreenH:   propH,
		Block:     propBlock,
		Faults:    faultSpec,
		Recovery:  recovery,
		MaxRounds: propRounds,
	}
}

// outcome is everything a finished transfer produced, for bit-identity
// comparison.
type outcome struct {
	payload []byte
	stats   *transport.Stats
	errText string
}

// finish steps a driver to completion and seals it.
func finish(t *testing.T, d Driver) outcome {
	t.Helper()
	for {
		info, err := d.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if info.Done {
			break
		}
	}
	payload, stats, err := d.Result()
	o := outcome{payload: payload, stats: stats}
	if err != nil {
		o.errText = err.Error()
	}
	return o
}

// TestSnapshotRestoreBitIdentical is the snapshot/restore property over
// the faults x recovery matrix: serializing a lossy transfer at EVERY
// round boundary and resuming each snapshot in a fresh driver must finish
// with exactly the uninterrupted run's payload, Stats and error. This is
// the correctness contract that lets a daemon migrate live sessions.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	// minRounds pins that the lossy conditions really exercise
	// mid-transfer state (collector partials, soft tables, stall
	// counters): if link realism changes and they complete in one round,
	// the property would silently stop testing anything.
	conditions := []struct {
		name, faults string
		minRounds    int
	}{
		{"clean", "", 1},
		{"drop", "drop=0.6,seed=11", 2},
		{"splice_occlude", "splice=0.55,occlude=0.5,seed=5", 2},
	}
	modes := []string{"off", "erasures", "ladder", "combine"}
	for _, cond := range conditions {
		for _, mode := range modes {
			cond, mode := cond, mode
			t.Run(cond.name+"/"+mode, func(t *testing.T) {
				t.Parallel()
				var f transportFactory
				spec := propSpec(cond.faults, mode)

				drv, err := f.New(spec)
				if err != nil {
					t.Fatal(err)
				}
				// Snapshot at every round boundary of the primary run:
				// before the first round and after each completed one.
				var snaps [][]byte
				for {
					state, err := drv.Snapshot()
					if err != nil {
						t.Fatalf("snapshot: %v", err)
					}
					// Exercise the full envelope, not just the driver state.
					env, err := EncodeSnapshot(&Snapshot{ID: 1, State: StateTransferring, Spec: spec, DriverState: state})
					if err != nil {
						t.Fatalf("encode envelope: %v", err)
					}
					snaps = append(snaps, env)
					info, err := drv.Step()
					if err != nil {
						t.Fatalf("step: %v", err)
					}
					if info.Done {
						break
					}
				}
				want := finish(t, drv)
				if want.stats.Rounds < cond.minRounds {
					t.Fatalf("condition too mild: %d rounds, want >= %d (property not exercised)",
						want.stats.Rounds, cond.minRounds)
				}

				for i, env := range snaps {
					snap, err := DecodeSnapshot(env)
					if err != nil {
						t.Fatalf("decode envelope %d: %v", i, err)
					}
					if !reflect.DeepEqual(snap.Spec, spec) {
						t.Fatalf("spec did not survive the envelope at boundary %d", i)
					}
					resumed, err := f.Restore(snap.Spec, snap.DriverState)
					if err != nil {
						t.Fatalf("restore at boundary %d: %v", i, err)
					}
					got := finish(t, resumed)
					if !bytes.Equal(got.payload, want.payload) {
						t.Errorf("boundary %d: payload differs from uninterrupted run", i)
					}
					if !reflect.DeepEqual(got.stats, want.stats) {
						t.Errorf("boundary %d: stats differ:\n got %+v\nwant %+v", i, got.stats, want.stats)
					}
					if got.errText != want.errText {
						t.Errorf("boundary %d: err %q, want %q", i, got.errText, want.errText)
					}
				}
				t.Logf("%s/%s: %d boundaries verified, delivered=%v rounds=%d",
					cond.name, mode, len(snaps), want.errText == "", want.stats.Rounds)
			})
		}
	}
}
