package core

import (
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
)

// Fix is the capture-space geometric solution for one captured image:
// corner trackers found, locator columns walked, ready to map any grid
// cell to capture coordinates. It is the reusable front half of the
// decoder; DecodeGrid builds one internally, and other codecs sharing the
// RainBar structural layout (e.g. the LightSync baseline) use it to avoid
// reimplementing detection.
type Fix struct {
	codec *Codec
	det   *detection
	lm    *locatorMap
}

// FixImage runs brightness assessment, corner-tracker detection and
// progressive locator localization on a capture.
func (c *Codec) FixImage(img *raster.Image) (*Fix, error) {
	sc := new(decodeScratch)
	det, err := c.detect(img, sc)
	if err != nil {
		return nil, err
	}
	lm, err := c.locateAll(img, det, sc)
	if err != nil {
		return nil, err
	}
	return &Fix{codec: c, det: det, lm: lm}, nil
}

// CellCenter maps grid cell (row, col) to capture coordinates.
func (f *Fix) CellCenter(row, col int) geometry.Point {
	return f.codec.cellCenter(f.lm, row, col)
}

// TV returns the adaptive value threshold estimated for the capture.
func (f *Fix) TV() float64 { return f.det.tv }

// BlockSize returns the estimated block side in capture pixels.
func (f *Fix) BlockSize() float64 { return f.det.bst }

// LocatorMisses counts dead-reckoned locators (localization diagnostics).
func (f *Fix) LocatorMisses() int { return f.lm.misses }
