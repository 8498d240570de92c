package rainbar_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"rainbar"
	"rainbar/internal/core/layout"
)

func TestNewDefaults(t *testing.T) {
	c, err := rainbar.New()
	if err != nil {
		t.Fatal(err)
	}
	// The S4 defaults must reproduce the paper's per-frame capacity class
	// (~2.8 KB payload after RS overhead on 11470 data blocks).
	if c.FrameCapacity() < 2500 || c.FrameCapacity() > 2900 {
		t.Fatalf("default frame capacity = %d, want ≈2700", c.FrameCapacity())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := rainbar.New(rainbar.WithScreenSize(50, 50)); err == nil {
		t.Fatal("tiny screen accepted")
	}
	if _, err := rainbar.New(rainbar.WithRSParity(500)); err == nil {
		t.Fatal("oversized parity accepted")
	}
}

// TestNewRejectsHugeScreen: the screen size is unchecked input to the
// facade, and a geometry's cell tables grow with its area, so a screen
// beyond layout.MaxScreenPx a side fails before anything is sized from it.
func TestNewRejectsHugeScreen(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := rainbar.New(rainbar.WithScreenSize(1<<20, 1<<20))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, layout.ErrScreenTooLarge) {
		t.Fatalf("1<<20 x 1<<20 screen: error %v, want layout.ErrScreenTooLarge", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("refusing the screen allocated %d bytes", n)
	}
}

// TestNewRejectsDisplayRateOutOfRange: frame headers carry the display
// rate in one byte, so a rate outside 1..255 is an error rather than a
// header that silently advertises the rate mod 256.
func TestNewRejectsDisplayRateOutOfRange(t *testing.T) {
	for _, fps := range []int{-1, 0, 256, 300} {
		if _, err := rainbar.New(rainbar.WithDisplayRate(fps)); err == nil {
			t.Errorf("WithDisplayRate(%d) accepted", fps)
		}
	}
	for _, fps := range []int{1, 255} {
		if _, err := rainbar.New(rainbar.WithDisplayRate(fps)); err != nil {
			t.Errorf("WithDisplayRate(%d): %v", fps, err)
		}
	}
}

// TestNewChannelRejectsNonFinite: the facade refuses a channel condition
// with a NaN or infinite value in any float field.
func TestNewChannelRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name  string
		field func(*rainbar.ChannelConfig) *float64
	}{
		{"DistanceCM", func(c *rainbar.ChannelConfig) *float64 { return &c.DistanceCM }},
		{"ViewAngleDeg", func(c *rainbar.ChannelConfig) *float64 { return &c.ViewAngleDeg }},
		{"ScreenBrightness", func(c *rainbar.ChannelConfig) *float64 { return &c.ScreenBrightness }},
		{"BlurSigma", func(c *rainbar.ChannelConfig) *float64 { return &c.BlurSigma }},
		{"NoiseStdDev", func(c *rainbar.ChannelConfig) *float64 { return &c.NoiseStdDev }},
		{"ChromaNoiseStdDev", func(c *rainbar.ChannelConfig) *float64 { return &c.ChromaNoiseStdDev }},
		{"LensK1", func(c *rainbar.ChannelConfig) *float64 { return &c.LensK1 }},
		{"LensK2", func(c *rainbar.ChannelConfig) *float64 { return &c.LensK2 }},
		{"JitterPx", func(c *rainbar.ChannelConfig) *float64 { return &c.JitterPx }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := rainbar.DefaultChannelConfig()
			*f.field(&cfg) = v
			if _, err := rainbar.NewChannel(cfg); err == nil {
				t.Errorf("NewChannel accepted %s = %v", f.name, v)
			}
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	c, err := rainbar.New(rainbar.WithScreenSize(640, 360), rainbar.WithBlockSize(12))
	if err != nil {
		t.Fatal(err)
	}
	fc := rainbar.FileCodec{Codec: c}
	data := []byte("the public facade must round-trip a small file through frames and a channel")

	col := rainbar.NewCollector()
	ch, err := rainbar.NewChannel(rainbar.DefaultChannelConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := fc.NumChunks(len(data))
	for ci := 0; ci < n; ci++ {
		payload, err := fc.Chunk(data, ci)
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.EncodeFrame(payload, uint16(ci), ci == n-1)
		if err != nil {
			t.Fatal(err)
		}
		capt, err := ch.Capture(f.Render())
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := c.DecodeFrame(capt)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Add(got); err != nil {
			t.Fatal(err)
		}
	}
	gotFile, _, err := col.File()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFile, data) {
		t.Fatal("facade round trip corrupted the file")
	}
}

func TestErrorSentinels(t *testing.T) {
	c, err := rainbar.New(rainbar.WithScreenSize(640, 360), rainbar.WithBlockSize(12))
	if err != nil {
		t.Fatal(err)
	}
	// Oversized payload surfaces through the facade sentinel.
	big := make([]byte, c.FrameCapacity()+1)
	if _, err := c.EncodeFrame(big, 0, false); !errors.Is(err, rainbar.ErrPayloadTooLarge) {
		t.Fatalf("EncodeFrame(oversized) = %v, want ErrPayloadTooLarge", err)
	}
	// A blank (all-white) image has no corner trackers.
	f, err := c.EncodeFrame([]byte("x"), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	img := f.Render()
	white := img.Pix[0] // top-left corner of a frame is background white
	for i := range img.Pix {
		img.Pix[i] = white
	}
	if _, _, err := c.DecodeFrame(img); !errors.Is(err, rainbar.ErrNoCornerTrackers) {
		t.Fatalf("DecodeFrame(blank) = %v, want ErrNoCornerTrackers", err)
	}
}

func TestFacadeMetrics(t *testing.T) {
	m := rainbar.NewMetrics()
	c, err := rainbar.New(
		rainbar.WithScreenSize(640, 360),
		rainbar.WithBlockSize(12),
		rainbar.WithRecorder(m),
	)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, c.FrameCapacity())
	f, err := c.EncodeFrame(payload, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DecodeFrame(f.Render()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rainbar.WriteMetricsPrometheus(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"rainbar_core_captures_total 1",
		`rainbar_core_stage_seconds_count{stage="detect"} 1`,
		`rainbar_core_stage_seconds_count{stage="correct"} 1`,
		"rainbar_core_cells_classified_total{color=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus exposition missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := rainbar.WriteMetricsJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"rainbar_core_captures_total"`) {
		t.Errorf("json exposition missing captures counter:\n%s", buf.String())
	}
}
