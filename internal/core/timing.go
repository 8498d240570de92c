package core

//lint:file-allow RB-D1 this file is the §IV-D decode-time stopwatch: every time.Now/Since here feeds only StageTimings telemetry, never a decode decision, so determinism of decoded bits is unaffected

import (
	"time"

	"rainbar/internal/raster"
)

// StageTimings breaks one capture's decode into the paper's pipeline
// stages (§III-C..F), for the §IV-D decode-time analysis.
type StageTimings struct {
	// Detect covers brightness assessment and corner-tracker detection.
	Detect time.Duration
	// Locate covers the progressive locator localization.
	Locate time.Duration
	// Extract covers block sampling, classification, header and bars.
	Extract time.Duration
	// Correct covers RS decoding and checksum verification.
	Correct time.Duration
}

// Total returns the summed pipeline time.
func (s StageTimings) Total() time.Duration {
	return s.Detect + s.Locate + s.Extract + s.Correct
}

// DecodeFrameTimed is DecodeFrame with a per-stage stopwatch. The timings
// use the wall clock and are only meaningful relative to each other.
func (c *Codec) DecodeFrameTimed(img *raster.Image) (payload []byte, timings StageTimings, err error) {
	sc := new(decodeScratch)
	t0 := time.Now()
	det, err := c.detect(img, sc)
	timings.Detect = time.Since(t0)
	if err != nil {
		return nil, timings, err
	}

	t1 := time.Now()
	lm, err := c.locateAll(img, det, sc)
	timings.Locate = time.Since(t1)
	if err != nil {
		return nil, timings, err
	}

	t2 := time.Now()
	gd := &sc.gd[0]
	c.extractGrid(img, det, lm, img.Sharpness(nil), sc, gd)
	timings.Extract = time.Since(t2)

	t3 := time.Now()
	payload, err = c.AssemblePayload(gd.Cells, gd.Header)
	timings.Correct = time.Since(t3)
	return payload, timings, err
}
