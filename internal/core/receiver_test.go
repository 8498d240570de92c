package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

// transmit renders frames, displays them at rateFPS, films them with the
// default camera through cfg, and returns the captures.
func transmit(t *testing.T, c *Codec, payloads [][]byte, rateFPS float64, cfg channel.Config) []camera.Capture {
	t.Helper()
	frames := make([]*raster.Image, len(payloads))
	for i, p := range payloads {
		f, err := c.EncodeFrame(p, uint16(i), i == len(payloads)-1)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f.Render()
	}
	disp, err := screen.NewDisplay(frames, rateFPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Default()
	cam.Phase = 3 * time.Millisecond
	caps, err := cam.Film(disp, channel.MustNew(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return caps
}

func randomPayloads(c *Codec, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, c.FrameCapacity())
		rng.Read(out[i])
	}
	return out
}

func runReceiver(t *testing.T, c *Codec, caps []camera.Capture, disableSync bool) *Receiver {
	t.Helper()
	rx := NewReceiver(c)
	rx.DisableSync = disableSync
	for _, cap := range caps {
		// Individual captures may fail (e.g. severely mixed header rows);
		// the receiver keeps going, as the real system would.
		_ = rx.Ingest(cap.Image)
	}
	rx.Flush()
	return rx
}

func recoveredCount(rx *Receiver, payloads [][]byte) int {
	n := 0
	for i, want := range payloads {
		f, ok := rx.Frame(uint16(i))
		if ok && f.Err == nil && bytes.Equal(f.Payload, want) {
			n++
		}
	}
	return n
}

func TestReceiverSlowDisplayRecoversAll(t *testing.T) {
	// f_d = 10 <= f_c/2 = 15: every frame is captured cleanly at least
	// twice; blur assessment picks the best and all frames must decode.
	c := testCodec(t)
	payloads := randomPayloads(c, 4, 11)
	caps := transmit(t, c, payloads, 10, channel.DefaultConfig())
	rx := runReceiver(t, c, caps, false)
	if got := recoveredCount(rx, payloads); got != len(payloads) {
		t.Fatalf("recovered %d/%d frames at f_d=10", got, len(payloads))
	}
}

// TestDecodedFramesTakeNoVotes: once a frame has decoded, later captures
// of it open no accumulator for it, so a receiver fed a long stream holds
// accumulators only for the frames still being assembled, not one for
// every frame it has seen.
func TestDecodedFramesTakeNoVotes(t *testing.T) {
	c := testCodec(t)
	payloads := randomPayloads(c, 12, 13)
	caps := transmit(t, c, payloads, 10, channel.DefaultConfig())
	rx := NewReceiver(c)
	most := 0
	for _, cap := range caps {
		_ = rx.Ingest(cap.Image)
		most = max(most, len(rx.partial))
	}
	if got := recoveredCount(rx, payloads); got != len(payloads) {
		t.Fatalf("recovered %d/%d frames", got, len(payloads))
	}
	if len(rx.partial) != 0 || most > 2 {
		t.Fatalf("%d accumulators open after every frame decoded, at most %d at once; want none, and at most 2", len(rx.partial), most)
	}
}

func TestReceiverFastDisplayUsesTrackingBars(t *testing.T) {
	// f_d = 20 > f_c/2: captures are mixed; only tracking-bar sync can
	// reassemble the frames.
	c := testCodec(t)
	payloads := randomPayloads(c, 6, 12)
	caps := transmit(t, c, payloads, 20, channel.DefaultConfig())

	rx := runReceiver(t, c, caps, false)
	got := recoveredCount(rx, payloads)
	if got < len(payloads)-1 { // the last frame's tail may miss its bottom capture
		t.Fatalf("recovered %d/%d frames at f_d=20 with sync", got, len(payloads))
	}
}

func TestSyncAblationCollapsesAtHighRate(t *testing.T) {
	// E16: disabling tracking-bar sync must lose frames once f_d gets
	// close to f_c. At f_d = 25 (f_c = 30) the display period barely
	// exceeds the 30 ms readout, so clean captures are rare and the
	// whole-frame path starves; tracking-bar reassembly keeps working.
	c := testCodec(t)
	payloads := randomPayloads(c, 6, 13)
	caps := transmit(t, c, payloads, 25, channel.DefaultConfig())

	withSync := recoveredCount(runReceiver(t, c, caps, false), payloads)
	without := recoveredCount(runReceiver(t, c, caps, true), payloads)
	if without >= withSync {
		t.Fatalf("sync off recovered %d, sync on %d; ablation shows no benefit", without, withSync)
	}
}

func TestReceiverFrameOrdering(t *testing.T) {
	c := testCodec(t)
	payloads := randomPayloads(c, 3, 14)
	caps := transmit(t, c, payloads, 10, channel.DefaultConfig())
	rx := runReceiver(t, c, caps, false)
	frames := rx.Frames()
	for i := 1; i < len(frames); i++ {
		if frames[i].Header.Seq <= frames[i-1].Header.Seq {
			t.Fatalf("frames out of order: %d after %d", frames[i].Header.Seq, frames[i-1].Header.Seq)
		}
	}
}

func TestReceiverLastFlagSurvives(t *testing.T) {
	c := testCodec(t)
	payloads := randomPayloads(c, 3, 15)
	caps := transmit(t, c, payloads, 10, channel.DefaultConfig())
	rx := runReceiver(t, c, caps, false)
	f, ok := rx.Frame(2)
	if !ok {
		t.Fatal("last frame missing")
	}
	if !f.Header.Last {
		t.Error("Last flag lost in transit")
	}
}

func TestReceiverIgnoresGarbageCaptures(t *testing.T) {
	c := testCodec(t)
	rx := NewReceiver(c)
	noise := raster.New(480, 270)
	if err := rx.Ingest(noise); err == nil {
		t.Fatal("garbage capture ingested without error")
	}
	if len(rx.Frames()) != 0 {
		t.Fatal("garbage produced frames")
	}
}
