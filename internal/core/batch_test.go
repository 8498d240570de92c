package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
)

// sameFrames compares two receivers' completed-frame sets field by field
// (header, payload, error text, soft tables).
func sameFrames(t *testing.T, want, got *Receiver) {
	t.Helper()
	wf, gf := want.Frames(), got.Frames()
	if len(wf) != len(gf) {
		t.Fatalf("frame count: sequential %d, batch %d", len(wf), len(gf))
	}
	for i := range wf {
		w, g := wf[i], gf[i]
		if w.Header != g.Header {
			t.Errorf("frame %d: header %+v vs %+v", i, w.Header, g.Header)
		}
		if !bytes.Equal(w.Payload, g.Payload) {
			t.Errorf("frame %d (seq %d): payloads differ", i, w.Header.Seq)
		}
		switch {
		case (w.Err == nil) != (g.Err == nil):
			t.Errorf("frame %d: err %v vs %v", i, w.Err, g.Err)
		case w.Err != nil && w.Err.Error() != g.Err.Error():
			t.Errorf("frame %d: err %q vs %q", i, w.Err, g.Err)
		}
		if !reflect.DeepEqual(w.Cells, g.Cells) || !reflect.DeepEqual(w.Conf, g.Conf) {
			t.Errorf("frame %d: soft tables differ", i)
		}
	}
	wa, ww := want.RecoveryStats()
	ga, gw := got.RecoveryStats()
	if wa != ga || !reflect.DeepEqual(ww, gw) {
		t.Errorf("ladder stats: sequential (%d, %v), batch (%d, %v)", wa, ww, ga, gw)
	}
}

// TestIngestBatchMatchesSequential pins the IngestBatch contract: for any
// batch size, with recovery off or on, with clean or frame-mixing capture
// streams, the receiver state after IngestBatch is bit-identical to
// sequential Ingest calls — errors, frames, payloads, soft tables and
// ladder stats alike.
func TestIngestBatchMatchesSequential(t *testing.T) {
	// Force multiple workers so the parallel decode + ordered merge path
	// runs even on a single-CPU machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	for _, tc := range []struct {
		name   string
		budget int
		rate   float64
		faults bool
	}{
		{"clean_recovery_off", 0, 10, false},
		{"mixed_recovery_off", 0, 20, false},
		{"faulty_recovery_off", 0, 20, true},
		{"clean_recovery_on", DefaultRecoveryBudget, 10, false},
		{"faulty_recovery_on", DefaultRecoveryBudget, 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Geometry: testGeometry(t), DisplayRate: 10, AppType: 1, RecoveryBudget: tc.budget}
			c, err := NewCodec(cfg)
			if err != nil {
				t.Fatal(err)
			}
			chCfg := channel.DefaultConfig()
			if tc.faults {
				chCfg.NoiseStdDev = 18
				chCfg.BlurSigma = 1.2
			}
			payloads := randomPayloads(c, 5, 77)
			caps := transmit(t, c, payloads, tc.rate, chCfg)
			imgs := make([]*raster.Image, len(caps))
			for i := range caps {
				imgs[i] = caps[i].Image
			}

			seqRx := NewReceiver(c)
			seqErrs := make([]error, len(imgs))
			for i, img := range imgs {
				seqErrs[i] = seqRx.Ingest(img)
			}
			seqRx.Flush()

			for _, batch := range []int{1, 3, len(imgs)} {
				batchRx := NewReceiver(c)
				var batchErrs []error
				for lo := 0; lo < len(imgs); lo += batch {
					hi := min(lo+batch, len(imgs))
					batchErrs = append(batchErrs, batchRx.IngestBatch(imgs[lo:hi])...)
				}
				batchRx.Flush()

				for i := range seqErrs {
					w, g := seqErrs[i], batchErrs[i]
					if (w == nil) != (g == nil) || (w != nil && w.Error() != g.Error()) {
						t.Errorf("batch=%d capture %d: err %v vs %v", batch, i, w, g)
					}
				}
				sameFrames(t, seqRx, batchRx)
			}
		})
	}
}

// TestReceiverResetMatchesFresh pins Reset: a recycled receiver must
// reproduce a fresh receiver's results bit for bit on the next stream.
func TestReceiverResetMatchesFresh(t *testing.T) {
	c := testCodec(t)
	payloads := randomPayloads(c, 4, 9)
	caps := transmit(t, c, payloads, 20, channel.DefaultConfig())

	recycled := NewReceiver(c)
	for round := 0; round < 3; round++ {
		fresh := NewReceiver(c)
		for _, cap := range caps {
			fe := fresh.Ingest(cap.Image)
			re := recycled.Ingest(cap.Image)
			if (fe == nil) != (re == nil) {
				t.Fatalf("round %d: ingest err fresh=%v recycled=%v", round, fe, re)
			}
		}
		fresh.Flush()
		recycled.Flush()
		sameFrames(t, fresh, recycled)
		recycled.Reset()
	}
}

// TestReceiverSteadyStateAllocFree enforces the hot-path memory contract
// (DESIGN.md §11) with the recovery ladder off and on: once warm, a
// Reset-recycled receiver ingests captures, completes frames and flushes
// without allocating a single byte. It counts the Mallocs and TotalAlloc
// deltas over all its runs rather than a per-run quotient, which would
// round a few allocations down to 0. One P and the collector off keep the
// decode-scratch pool's contents where the warm-up left them: a sync.Pool
// miss on a P the goroutine just moved to refills as fresh allocation.
func TestReceiverSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; the allocation contract is measured without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name   string
		budget int
	}{
		{"recovery_off", 0},
		{"recovery_on", DefaultRecoveryBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCodec(Config{Geometry: testGeometry(t), DisplayRate: 10, AppType: 1, RecoveryBudget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			process := steadyReceiver(t, c)
			process() // warm scratch buffers and freelists

			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				process()
			}
			runtime.ReadMemStats(&after)
			if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n > 0 || b > 0 {
				t.Fatalf("steady-state receiver made %d allocations (%d B) over %d 4-capture batches, want 0", n, b, runs)
			}
		})
	}
}

// steadyReceiver films four frames through the default channel and
// returns one batch of the steady-state loop: ingest every capture on one
// long-lived receiver, flush, check every frame decoded, Reset.
func steadyReceiver(tb testing.TB, c *Codec) func() {
	tb.Helper()
	ch := channel.MustNew(channel.DefaultConfig())
	const batch = 4
	caps := make([]*raster.Image, batch)
	for i := range caps {
		f, err := c.EncodeFrame(payloadFor(c, int64(i)), uint16(i), false)
		if err != nil {
			tb.Fatal(err)
		}
		caps[i], err = ch.Capture(f.Render())
		if err != nil {
			tb.Fatal(err)
		}
	}
	rx := NewReceiver(c)
	return func() {
		for _, capt := range caps {
			if err := rx.Ingest(capt); err != nil {
				tb.Fatal(err)
			}
		}
		rx.Flush()
		for i := 0; i < batch; i++ {
			if df, ok := rx.Frame(uint16(i)); !ok || df.Err != nil {
				tb.Fatalf("frame %d not decoded", i)
			}
		}
		rx.Reset()
	}
}

// TestFailedIngestReusesRotation pins the cost of a capture without corner
// trackers: decode retries it upside down, and the rotated copy must go
// back to the image pool, so a warm receiver's failing Ingest allocates
// well under one frame instead of a fresh 640x360 image every time.
func TestFailedIngestReusesRotation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses its cache at random under -race; the allocation contract is measured without it")
	}
	white := raster.New(640, 360)
	white.Fill(colorspace.RGBWhite)
	rx := NewReceiver(testCodec(t))
	ingest := func() {
		if err := rx.Ingest(white); !errors.Is(err, ErrNoCornerTrackers) {
			t.Fatalf("white capture: err %v, want ErrNoCornerTrackers", err)
		}
	}
	ingest() // warm scratch buffers and the image pool

	// GC off so sync.Pool contents survive the measured calls.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	perIngest := (after.TotalAlloc - before.TotalAlloc) / runs
	if frame := uint64(3 * len(white.Pix)); perIngest >= frame {
		t.Fatalf("failing Ingest allocates %d bytes, want under one %d-byte frame", perIngest, frame)
	}
	t.Logf("failing Ingest allocates %d bytes", perIngest)
}
