package cobra

import (
	"bytes"
	"math/rand"
	"testing"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/raster"
)

func testCodec(t testing.TB) *Codec {
	t.Helper()
	c, err := NewCodec(Config{ScreenW: 480, ScreenH: 270, BlockSize: 10, DisplayRate: 10, AppType: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// decodeFrame decodes one capture end to end: grid, then payload.
func decodeFrame(c *Codec, img *raster.Image) (header.Header, []byte, error) {
	gd, err := c.DecodeGrid(img)
	if err != nil {
		return header.Header{}, nil, err
	}
	payload, err := c.AssemblePayload(gd.Cells, gd.Header)
	return gd.Header, payload, err
}

func payloadFor(c *Codec, seed int64) []byte {
	data := make([]byte, c.FrameCapacity())
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(Config{ScreenW: 50, ScreenH: 50, BlockSize: 10}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := NewCodec(Config{ScreenW: 480, ScreenH: 270, BlockSize: 1}); err == nil {
		t.Error("block size 1 accepted")
	}
}

func TestCapacityMatchesPaperFormula(t *testing.T) {
	// Paper §III-B: COBRA's code area on the S4 is (147-6)*(83-6) = 10857.
	c, err := NewCodec(Config{ScreenW: 1920, ScreenH: 1080, BlockSize: 13})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CodeAreaBlocks(); got != 10857 {
		t.Fatalf("code area = %d blocks, want 10857", got)
	}
}

func TestEncodeFrameStructure(t *testing.T) {
	c := testCodec(t)
	f, err := c.EncodeFrame([]byte("abc"), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Corner tracker centers are black, rings have their colors.
	cts := c.ctCenters()
	rings := []colorspace.Color{RingTL, RingTR, RingBL, RingBR}
	for i, ct := range cts {
		if got := f.colors[ct.row*c.cols+ct.col]; got != colorspace.Black {
			t.Errorf("CT %d center = %v", i, got)
		}
		if got := f.colors[(ct.row-1)*c.cols+ct.col]; got != rings[i] {
			t.Errorf("CT %d ring = %v, want %v", i, got, rings[i])
		}
	}
}

func TestEncodeRejectsOversized(t *testing.T) {
	c := testCodec(t)
	if _, err := c.EncodeFrame(make([]byte, c.FrameCapacity()+1), 0, false); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestPerfectRoundTripNoChannel(t *testing.T) {
	c := testCodec(t)
	want := payloadFor(c, 1)
	f, err := c.EncodeFrame(want, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	hdr, got, err := decodeFrame(c, f.Render())
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Seq != 4 || !hdr.Last {
		t.Errorf("header %+v", hdr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload mismatch on clean render")
	}
}

func TestRoundTripThroughGentleChannel(t *testing.T) {
	// COBRA must work under mild conditions — the paper's comparison is
	// fair only if the baseline functions in its comfort zone.
	c := testCodec(t)
	want := payloadFor(c, 2)
	f, err := c.EncodeFrame(want, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := channel.DefaultConfig()
	cfg.LensK1, cfg.LensK2 = 0, 0 // head-on, no lens distortion
	capt, err := channel.MustNew(cfg).Capture(f.Render())
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := decodeFrame(c, capt)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted through gentle channel")
	}
}

func TestReceiverPicksSharpestCapture(t *testing.T) {
	c := testCodec(t)
	want := payloadFor(c, 3)
	f, err := c.EncodeFrame(want, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rendered := f.Render()

	sharpCfg := channel.DefaultConfig()
	sharpCfg.BlurSigma = 0.5
	blurCfg := channel.DefaultConfig()
	blurCfg.BlurSigma = 2.5

	sharp, err := channel.MustNew(sharpCfg).Capture(rendered)
	if err != nil {
		t.Fatal(err)
	}
	blurry, err := channel.MustNew(blurCfg).Capture(rendered)
	if err != nil {
		t.Fatal(err)
	}

	rx := NewReceiver(c)
	if err := rx.Ingest(blurry); err != nil {
		t.Logf("blurry capture rejected outright: %v", err)
	}
	if err := rx.Ingest(sharp); err != nil {
		t.Fatal(err)
	}
	frames := rx.Frames()
	if len(frames) != 1 || frames[0].Header.Seq != 0 {
		t.Fatalf("decoded %d frames, want seq 0 alone", len(frames))
	}
	got := frames[0]
	if got.Err != nil {
		t.Fatalf("decode failed: %v", got.Err)
	}
	if !bytes.Equal(got.Payload, want) {
		t.Fatal("payload mismatch")
	}
}

func TestDecodeRejectsBlankImage(t *testing.T) {
	c := testCodec(t)
	f, err := c.EncodeFrame([]byte("x"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	img := f.Render()
	img.Fill(colorspace.RGBWhite)
	if _, err := c.DecodeGrid(img); err == nil {
		t.Fatal("blank image decoded")
	}
}

// TestLocalizationErrorVsRainBar is the Fig. 3/4 comparison: under strong
// perspective plus lens distortion, COBRA's straight-line intersection
// localization must show a larger mean block-center error than RainBar's
// progressive locators. The actual numbers are produced by experiment E12;
// here we assert the direction using raw block error rate as a proxy.
func TestLocalizationDegradesUnderDistortion(t *testing.T) {
	c := testCodec(t)
	want := payloadFor(c, 4)
	f, err := c.EncodeFrame(want, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rendered := f.Render()

	gentle := channel.DefaultConfig()
	gentle.LensK1, gentle.LensK2 = 0, 0
	harsh := channel.DefaultConfig()
	harsh.ViewAngleDeg = 20
	harsh.LensK1, harsh.LensK2 = 0.06, 0.01

	errorRate := func(cfg channel.Config) float64 {
		capt, err := channel.MustNew(cfg).Capture(rendered)
		if err != nil {
			t.Fatal(err)
		}
		gd, err := c.DecodeGrid(capt)
		if err != nil {
			return 1.0
		}
		truth, err := c.EncodeFrame(want, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		wrong := 0
		for i, cell := range c.dataCells {
			if gd.Cells[i] != truth.colors[cell.row*c.cols+cell.col] {
				wrong++
			}
		}
		return float64(wrong) / float64(len(c.dataCells))
	}

	gentleErr := errorRate(gentle)
	harshErr := errorRate(harsh)
	if harshErr <= gentleErr {
		t.Fatalf("distortion did not degrade COBRA: gentle %.4f, harsh %.4f", gentleErr, harshErr)
	}
}
