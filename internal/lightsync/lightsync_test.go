package lightsync

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"rainbar/internal/camera"
	"rainbar/internal/channel"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/raster"
	"rainbar/internal/screen"
)

func testCodec(t testing.TB) *Codec {
	t.Helper()
	c, err := NewCodec(Config{ScreenW: 640, ScreenH: 360, BlockSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// decodeFrame decodes a single clean capture end to end: grid, then
// payload.
func decodeFrame(c *Codec, img *raster.Image) (uint16, []byte, error) {
	gd, err := c.DecodeGrid(img)
	if err != nil {
		return 0, nil, err
	}
	return c.AssemblePayload(gd.Bits)
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(Config{ScreenW: 50, ScreenH: 50, BlockSize: 10}); err == nil {
		t.Error("tiny screen accepted")
	}
}

func TestCapacityBelowRainBar(t *testing.T) {
	// One bit per block instead of two, plus line headers and guard
	// columns: LightSync must carry well under half of RainBar's payload
	// on the same screen.
	ls := testCodec(t)
	geo, err := layout.NewGeometry(640, 360, 12)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.NewCodec(core.Config{Geometry: geo})
	if err != nil {
		t.Fatal(err)
	}
	if ls.FrameCapacity() >= rb.FrameCapacity()/2 {
		t.Fatalf("LightSync capacity %d not well below half of RainBar's %d",
			ls.FrameCapacity(), rb.FrameCapacity())
	}
	if ls.FrameCapacity() <= 0 {
		t.Fatal("no capacity")
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	c := testCodec(t)
	if _, err := c.EncodeFrame(make([]byte, c.FrameCapacity()+1), 0); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestCleanRoundTrip(t *testing.T) {
	c := testCodec(t)
	want := make([]byte, c.FrameCapacity())
	rand.New(rand.NewSource(1)).Read(want)
	f, err := c.EncodeFrame(want, 42)
	if err != nil {
		t.Fatal(err)
	}
	seq, got, err := decodeFrame(c, f.Render())
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Errorf("seq = %d", seq)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("clean round trip failed")
	}
}

func TestRoundTripThroughChannel(t *testing.T) {
	c := testCodec(t)
	want := make([]byte, c.FrameCapacity())
	rand.New(rand.NewSource(2)).Read(want)
	f, err := c.EncodeFrame(want, 7)
	if err != nil {
		t.Fatal(err)
	}
	capt, err := channel.MustNew(channel.DefaultConfig()).Capture(f.Render())
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeFrame(c, capt)
	if err != nil {
		t.Fatalf("decode through channel: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted through channel")
	}
}

func TestBWRobustToChromaNoise(t *testing.T) {
	// The B/W alphabet's selling point: chroma noise that flips RainBar's
	// colors barely touches a black/white decision.
	c := testCodec(t)
	want := make([]byte, c.FrameCapacity())
	rand.New(rand.NewSource(3)).Read(want)
	f, err := c.EncodeFrame(want, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channel.DefaultConfig()
	cfg.ChromaNoiseStdDev = 60
	cfg.ChromaNoiseScalePx = 8
	capt, err := channel.MustNew(cfg).Capture(f.Render())
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeFrame(c, capt)
	if err != nil {
		t.Fatalf("decode under heavy chroma noise: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted under chroma noise")
	}
}

func TestLineHeadersParity(t *testing.T) {
	c := testCodec(t)
	f, err := c.EncodeFrame([]byte("x"), 5)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := c.DecodeGrid(f.Render())
	if err != nil {
		t.Fatal(err)
	}
	for row, ctr := range gd.LineSeq {
		if ctr != 5%seqMod {
			t.Fatalf("row %d counter = %d, want %d", row, ctr, 5%seqMod)
		}
	}
}

func TestReceiverMixedCapturesAtHighRate(t *testing.T) {
	// f_d = 25 on f_c = 30: captures are mostly mixed; line counters must
	// reassemble the frames.
	c := testCodec(t)
	rng := rand.New(rand.NewSource(4))
	n := 6
	payloads := make([][]byte, n)
	frames := make([]*raster.Image, n)
	for i := 0; i < n; i++ {
		payloads[i] = make([]byte, c.FrameCapacity())
		rng.Read(payloads[i])
		f, err := c.EncodeFrame(payloads[i], uint16(i))
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f.Render()
	}
	disp, err := screen.NewDisplay(frames, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	cam := camera.Default()
	cam.Phase = 4 * time.Millisecond
	caps, err := cam.Film(disp, channel.MustNew(channel.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	rx := NewReceiver(c)
	for i := range caps {
		_ = rx.Ingest(caps[i].Image)
	}
	rx.Flush()
	recovered := 0
	for i := 0; i < n; i++ {
		f, ok := rx.Frame(uint16(i))
		if ok && f.Err == nil && bytes.Equal(f.Payload, payloads[i]) {
			recovered++
		}
	}
	if recovered < n-2 {
		t.Fatalf("recovered %d/%d frames at f_d=25", recovered, n)
	}
}

func TestAssemblePayloadWrongLength(t *testing.T) {
	c := testCodec(t)
	if _, _, err := c.AssemblePayload(nil); err == nil {
		t.Fatal("wrong bit count accepted")
	}
}

func TestGuardColumnsStayWhite(t *testing.T) {
	c := testCodec(t)
	f, err := c.EncodeFrame(bytes.Repeat([]byte{0xFF}, c.FrameCapacity()), 0)
	if err != nil {
		t.Fatal(err)
	}
	g := c.geo
	colL, colM, colR := g.LocatorCols()
	for r := 0; r < g.Rows(); r++ {
		for _, co := range []int{colL - 1, colL + 1, colM - 1, colM + 1, colR - 1, colR + 1} {
			if g.KindAt(r, co) != layout.KindData {
				continue
			}
			if got := f.colors[r*g.Cols()+co]; got != 0 { // colorspace.White
				t.Fatalf("guard cell (%d,%d) painted %v", r, co, got)
			}
		}
	}
}
