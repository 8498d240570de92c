package colorspace_test

import (
	"math/rand"
	"testing"

	"rainbar/internal/channel"
	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
)

// capturePixels films one encoded 480x270 frame (10 px blocks) through the
// default channel and returns the 3x3 mean-filtered capture pixels of
// every data cell's block: about 106,000 noisy samples around the five
// code colours, too many for a branch predictor to learn their order.
func capturePixels(b *testing.B) []colorspace.RGB {
	g, err := layout.NewGeometry(480, 270, 10)
	if err != nil {
		b.Fatal(err)
	}
	codec, err := core.NewCodec(core.Config{Geometry: g, DisplayRate: 10, AppType: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, codec.FrameCapacity())
	rand.New(rand.NewSource(1)).Read(data)
	f, err := codec.EncodeFrame(data, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	capt, err := channel.MustNew(channel.DefaultConfig()).Capture(f.Render())
	if err != nil {
		b.Fatal(err)
	}
	bs := g.BlockSize()
	var px []colorspace.RGB
	for _, cell := range g.DataCells() {
		for y := cell.Row * bs; y < (cell.Row+1)*bs; y++ {
			for x := cell.Col * bs; x < (cell.Col+1)*bs; x++ {
				px = append(px, capt.MeanFilterAt(x, y))
			}
		}
	}
	return px
}

var (
	sinkCaptureColor colorspace.Color
	sinkCaptureConf  float64
	sinkCaptureHSV   colorspace.HSV
)

// BenchmarkClassifyCapturePixels times ClassifyRGB ("hard"),
// ClassifyRGBSoft ("soft") and ToHSV ("to_hsv") over a filmed capture's
// cell pixels and reports the cost per pixel.
func BenchmarkClassifyCapturePixels(b *testing.B) {
	px := capturePixels(b)
	cl := colorspace.NewClassifier(colorspace.DefaultTV)
	b.Run("hard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range px {
				sinkCaptureColor = cl.ClassifyRGB(p)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(px)), "ns/px")
	})
	b.Run("soft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range px {
				sinkCaptureColor, sinkCaptureConf = cl.ClassifyRGBSoft(p)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(px)), "ns/px")
	})
	b.Run("to_hsv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range px {
				sinkCaptureHSV = p.ToHSV()
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(px)), "ns/px")
	})
}
