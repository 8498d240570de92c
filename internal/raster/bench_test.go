package raster

import (
	"testing"

	"rainbar/internal/colorspace"
)

// benchImage builds a deterministic 640x360 frame (the default experiment
// scale) with block-like structure, so the filters see realistic content.
func benchImage() *Image {
	img := New(640, 360)
	palette := []colorspace.RGB{
		colorspace.RGBWhite, colorspace.RGBRed,
		colorspace.RGBGreen, colorspace.RGBBlue, colorspace.RGBBlack,
	}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Pix[y*img.W+x] = palette[((x/12)+3*(y/12))%len(palette)]
		}
	}
	return img
}

// BenchmarkSharpness times the case decode runs: a kept 2·W buffer.
func BenchmarkSharpness(b *testing.B) {
	img := benchImage()
	buf := make([]float64, 2*img.W)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Sharpness(buf)
	}
}

func BenchmarkMeanFilterAt(b *testing.B) {
	img := benchImage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.MeanFilterAt(320, 180)
	}
}
