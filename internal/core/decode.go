package core

import (
	"errors"
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/core/layout"
	"rainbar/internal/geometry"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
)

// GridDecode is the geometry-level decode of one captured image: every
// data cell classified, the header parsed, and the per-row tracking-bar
// colors read. Payload assembly happens later (possibly across captures,
// when rolling shutter mixes frames).
type GridDecode struct {
	// Header is the header of the frame owning the top of the capture.
	// Valid only when HeaderOK (DecodeGridLoose can return grids whose
	// header row was unreadable, e.g. blended by an LCD transition).
	Header header.Header
	// HeaderOK reports whether Header passed its CRCs.
	HeaderOK bool
	// Cells holds the classified color of every data cell, in
	// Geometry.DataCells() order.
	Cells []colorspace.Color
	// BarColors holds the per-grid-row tracking-bar color; valid only
	// where BarOK is true.
	BarColors []colorspace.Color
	// BarOK marks rows whose left and right tracking bars agree. Rows
	// captured mid-transition (LCD blend) usually disagree and cannot be
	// attributed to either frame.
	BarOK []bool
	// Conf holds the classification confidence of every data cell,
	// aligned with Cells. Populated only when the decode-recovery ladder
	// is enabled (Config.RecoveryBudget > 0); nil otherwise.
	Conf []float64
	// TV is the adaptive value threshold used (diagnostics).
	TV float64
	// LocatorMisses counts dead-reckoned code locators (diagnostics).
	LocatorMisses int
	// Sharpness is the capture's focus metric, used by blur assessment to
	// choose between duplicate captures of one frame.
	Sharpness float64
	// Recovery traces the grid-level recovery hypotheses run on this
	// capture (locator re-scan, μ-sweep). Nil when the ladder never ran.
	Recovery *RecoveryTrace
}

// RowOwner returns which logical frame owns grid row r: 0 for the header's
// frame, 1 for the next frame, or -1 when the bar color is inconsistent
// with both (d_t >= 2, §III-D).
func (gd *GridDecode) RowOwner(r int) int {
	return gd.RowOwnerFor(r, gd.Header.Seq)
}

// RowOwnerFor is RowOwner against an assumed top-frame sequence number,
// for receivers that inferred the sequence when the header was unreadable.
func (gd *GridDecode) RowOwnerFor(r int, seq uint16) int {
	if !gd.BarOK[r] {
		return -1
	}
	d := layout.BarDiff(gd.BarColors[r], layout.TrackingBarColor(seq))
	if d <= 1 {
		return d
	}
	return -1
}

// Consistent reports whether at most maxBad rows have inconsistent
// tracking bars; the paper drops captures with d_t >= 2 rows.
func (gd *GridDecode) Consistent(maxBad int) bool {
	bad := 0
	for r := range gd.BarColors {
		if gd.RowOwner(r) < 0 {
			bad++
		}
	}
	return bad <= maxBad
}

// DecodeGrid runs the full §III-C..F pipeline on one captured image:
// brightness assessment, corner-tracker detection, progressive locator
// localization, block localization, and HSV code extraction. An
// unreadable header is an error; streaming receivers that can infer the
// sequence from tracking bars should use DecodeGridLoose.
func (c *Codec) DecodeGrid(img *raster.Image) (*GridDecode, error) {
	gd, err := c.DecodeGridLoose(img)
	if err != nil {
		return nil, err
	}
	if !gd.HeaderOK {
		return nil, fmt.Errorf("core: header unreadable: %w", header.ErrCorrupt)
	}
	return gd, nil
}

// DecodeGridLoose is DecodeGrid except that an unreadable header is not
// fatal: the grid cells and tracking bars are still returned with
// HeaderOK false, so a receiver can attribute the rows by other means.
//
// Captures taken with the phone upside down are recovered transparently:
// the asymmetric corner trackers (green left, red right) reveal a
// half-turn orientation, and the decode reruns on the rotated image.
func (c *Codec) DecodeGridLoose(img *raster.Image) (*GridDecode, error) {
	return c.decodeGridLooseScratch(img, nil)
}

// decodeGridLooseScratch is DecodeGridLoose threading an optional decode
// scratch. With a scratch, the returned grid (and its cell tables) is
// scratch-owned: valid only until the next decode using the same scratch.
// The rotated retry may reuse the scratch because ErrNoCornerTrackers is
// raised before any scratch-owned result is returned.
func (c *Codec) decodeGridLooseScratch(img *raster.Image, sc *decodeScratch) (*GridDecode, error) {
	c.rec.Inc(obs.MCoreCaptures, 1)
	gd, err := c.decodeGridOriented(img, sc)
	if err != nil && errors.Is(err, ErrNoCornerTrackers) {
		// The grid keeps no reference to the image it was decoded from,
		// so the rotated copy goes back to the pool either way.
		rot := img.Rotate180()
		gd2, err2 := c.decodeGridOriented(rot, sc)
		raster.Recycle(rot)
		if err2 == nil {
			return gd2, nil
		}
	}
	return gd, err
}

func (c *Codec) decodeGridOriented(img *raster.Image, sc *decodeScratch) (*GridDecode, error) {
	gd, _, _, err := c.decodeGridFix(img, c.newLadder(), sc)
	return gd, err
}

// decodeGridFix is decodeGridOriented exposing the geometric fix, so the
// recovery ladder can re-extract cells under alternative thresholds. Two
// grid-level hypotheses run against the caller's ladder: a global locator
// re-scan when progressive prediction loses the middle column, and a
// proactive μ-sweep when the extraction classifies more data cells black
// than the erasure budget could ever absorb (a mis-estimated T_v is then
// the prime suspect).
func (c *Codec) decodeGridFix(img *raster.Image, lad *ladder, sc *decodeScratch) (*GridDecode, *detection, *locatorMap, error) {
	endDetect := c.rec.Span(obsSpanDetect)
	det, err := c.detect(img, sc)
	endDetect()
	if err != nil {
		return nil, nil, nil, err
	}
	endLocate := c.rec.Span(obsSpanLocate)
	lm, err := c.locateAll(img, det, sc)
	endLocate()
	if err != nil {
		if !errors.Is(err, ErrLocatorLost) || c.cfg.RecoveryErasuresOnly || !lad.tryAttempt(HypRescan) {
			return nil, nil, nil, err
		}
		lm, err = c.locateAllMode(img, det, true, sc)
		if err != nil {
			return nil, nil, nil, err
		}
		lad.win(HypRescan)
	}
	// One Sharpness pass serves the base extraction and every μ-sweep
	// re-extraction of the same capture.
	sharp := img.Sharpness()
	endExtract := c.rec.Span(obsSpanExtract)
	gd, err := c.extractGrid(img, det, lm, sharp, sc)
	endExtract()
	if err != nil {
		return gd, det, lm, err
	}
	if c.cfg.RecoveryBudget > 0 && det.tvOK && !c.cfg.RecoveryErasuresOnly && c.erasureOverflow(gd.Cells) {
		bestBad := nonDataCells(gd.Cells)
		for _, cand := range recoveryMus {
			if bestBad == 0 || !lad.tryAttempt(cand.hyp) {
				break
			}
			det2 := *det
			det2.tv = colorspace.TVForMu(det.vb, det.vo, cand.mu)
			// sc stays out of re-extractions: gd may be scratch-owned, and a
			// second scratch extraction would overwrite it mid-comparison.
			gd2, err2 := c.extractGrid(img, &det2, lm, sharp, nil)
			if err2 != nil {
				continue
			}
			// Adopt only a strictly less suspect reading.
			if bad := nonDataCells(gd2.Cells); bad < bestBad {
				gd, bestBad = gd2, bad
				lad.win(cand.hyp)
			}
		}
	}
	gd.Recovery = lad.result()
	return gd, det, lm, nil
}

// nonDataCells counts cells that classified to a non-data color (black):
// each is a guaranteed misread, so the count measures how suspect a grid
// reading is.
func nonDataCells(cells []colorspace.Color) int {
	n := 0
	for _, col := range cells {
		if !col.IsData() {
			n++
		}
	}
	return n
}

// erasureOverflow reports whether any single RS message carries more
// black-suspect bytes than the erasure budget accepts — the condition
// under which the legacy policy dropped every erasure and decode becomes
// a coin flip.
func (c *Codec) erasureOverflow(cells []colorspace.Color) bool {
	capE := c.cfg.RSParity - 2
	off := 0
	for _, k := range c.msgSizes {
		n := k + c.cfg.RSParity
		count := 0
		last := -1
		lo, hi := off*4, (off+n)*4
		if hi > len(cells) {
			hi = len(cells)
		}
		for i := lo; i < hi; i++ {
			if cells[i].IsData() {
				continue
			}
			if b := i / 4; b != last {
				count++
				last = b
			}
		}
		if count > capE {
			return true
		}
		off += n
	}
	return false
}

// sampleCell classifies the mean-filtered pixel under a grid cell's
// capture-space center. A method rather than a closure: the decode hot
// path calls it per cell, and a closure capturing img/cl/lm would escape
// to the heap on every extraction.
func (c *Codec) sampleCell(img *raster.Image, cl colorspace.Classifier, lm *locatorMap, row, col int) colorspace.Color {
	p := c.cellCenter(lm, row, col)
	return cl.ClassifyRGB(img.MeanFilterAt(int(p.X+0.5), int(p.Y+0.5)))
}

// extractGrid is the sampling/classification back half of the grid decode:
// header strip, data cells and tracking bars, given a geometric fix. sharp
// is the capture's precomputed focus metric (hoisted so μ-sweep
// re-extractions of one capture share a single Sharpness pass). With a
// scratch, the returned GridDecode and all its tables are scratch-owned.
func (c *Codec) extractGrid(img *raster.Image, det *detection, lm *locatorMap, sharp float64, sc *decodeScratch) (*GridDecode, error) {
	g := c.cfg.Geometry
	cl := colorspace.NewClassifier(det.tv)

	// Header strip.
	hdrCells := g.HeaderCells()
	var strip []colorspace.Color
	if sc != nil {
		strip = grow(sc.strip, len(hdrCells))
		sc.strip = strip
	} else {
		//lint:allow RB-P1 cold fallback: sc==nil only on the one-shot public API, never the receiver loop
		strip = make([]colorspace.Color, len(hdrCells))
	}
	for i, cell := range hdrCells {
		strip[i] = c.sampleCell(img, cl, lm, cell.Row, cell.Col)
	}
	hdr, hdrErr := header.DecodeColors(strip)

	dataCells := g.DataCells()
	var gd *GridDecode
	if sc != nil {
		gd = &sc.gd
	} else {
		gd = &GridDecode{}
	}
	cells := grow(gd.Cells, len(dataCells))
	barColors := grow(gd.BarColors, g.Rows())
	barOK := grow(gd.BarOK, g.Rows())
	var conf []float64
	if c.cfg.RecoveryBudget > 0 {
		conf = grow(gd.Conf, len(dataCells))
	}
	// Bar tables are written sparsely below; cells/conf are fully written.
	clear(barColors)
	clear(barOK)
	*gd = GridDecode{
		Header:        hdr,
		HeaderOK:      hdrErr == nil,
		Cells:         cells,
		BarColors:     barColors,
		BarOK:         barOK,
		Conf:          conf,
		TV:            det.tv,
		LocatorMisses: lm.misses,
		Sharpness:     sharp,
	}
	// Data cells come row-major, so each row's anchor terms are computed
	// once, on its first cell.
	var rm rowMap
	row := -1
	for i, cell := range dataCells {
		if cell.Row != row {
			row = cell.Row
			rm = c.rowMapAt(lm, row)
		}
		p := rm.at(cell.Col)
		px := img.MeanFilterAt(int(p.X+0.5), int(p.Y+0.5))
		if c.cfg.RecoveryBudget > 0 {
			// Soft extraction: same colors (ClassifyRGBSoft's class is
			// pinned bit-identical to ClassifyRGB) plus the per-cell
			// confidence the recovery ladder ranks erasures by.
			gd.Cells[i], gd.Conf[i] = cl.ClassifyRGBSoft(px)
		} else {
			gd.Cells[i] = cl.ClassifyRGB(px)
		}
	}

	if c.obsOn {
		if hdrErr != nil {
			c.rec.Inc(obs.MCoreHeaderCRCFailures, 1)
		}
		c.rec.Observe(obs.MCoreLocatorMisses, float64(lm.misses))
		// Confusion tallies are batched per frame: one local histogram
		// over the cells, then one Inc per color that appeared.
		var tally [colorspace.Black + 1]int64
		for _, col := range gd.Cells {
			if int(col) < len(tally) {
				tally[col]++
			}
		}
		for col, n := range tally {
			if n > 0 {
				c.rec.Inc(obsCellSeries[col], n)
			}
		}
		if len(gd.Conf) > 0 {
			var sum float64
			for _, v := range gd.Conf {
				sum += v
			}
			c.rec.Observe(obs.MCoreCellConfidence, 100*sum/float64(len(gd.Conf)))
		}
	}

	// Tracking bars: a row is attributable only when its left and right
	// bar blocks agree on a data color. Rows captured mid-transition (LCD
	// blend) or under heavy noise disagree and are left unowned — another
	// capture supplies them.
	for r := 0; r < g.Rows(); r++ {
		left := c.sampleCell(img, cl, lm, r, 0)
		right := c.sampleCell(img, cl, lm, r, g.Cols()-1)
		if left == right && left.IsData() {
			gd.BarColors[r] = left
			gd.BarOK[r] = true
		}
	}
	return gd, nil
}

// LocateCenters runs detection and progressive localization only and
// returns the estimated capture-space center of every data cell, aligned
// with Geometry.DataCells(). Used by the localization-error experiment
// (paper Fig. 3/4) to compare against ground truth.
func (c *Codec) LocateCenters(img *raster.Image) ([]geometry.Point, error) {
	det, err := c.detect(img, nil)
	if err != nil {
		return nil, err
	}
	lm, err := c.locateAll(img, det, nil)
	if err != nil {
		return nil, err
	}
	cells := c.cfg.Geometry.DataCells()
	out := make([]geometry.Point, len(cells))
	for i, cell := range cells {
		out[i] = c.cellCenter(lm, cell.Row, cell.Col)
	}
	return out, nil
}

// AssemblePayload turns a complete set of data-cell colors into the frame
// payload: pack 2-bit symbols, RS-decode each message, verify the frame
// checksum from hdr.
//
// Data cells that classified *black* are soft information: black never
// encodes data, so such a cell was misread (blur, shadow, blend) and its
// byte is handed to Reed-Solomon as an erasure — an erasure costs half
// the parity budget of an unknown error, so flagging them doubles the
// correction power exactly where the capture was weakest.
func (c *Codec) AssemblePayload(cells []colorspace.Color, hdr header.Header) ([]byte, error) {
	stream, suspect, err := c.packStream(cells)
	if err != nil {
		return nil, err
	}
	return c.decodePayload(stream, suspect, hdr.FrameChecksum)
}

// packStream packs data-cell colors into the frame's data-area byte
// stream, marking bytes touched by a black (non-data) cell as suspect.
func (c *Codec) packStream(cells []colorspace.Color) (stream []byte, suspect []bool, err error) {
	g := c.cfg.Geometry
	if len(cells) != len(g.DataCells()) {
		return nil, nil, fmt.Errorf("core: %d cells, want %d", len(cells), len(g.DataCells()))
	}
	stream = make([]byte, g.DataCapacityBytes())
	suspect = make([]bool, len(stream))
	c.packStreamInto(cells, stream, suspect)
	return stream, suspect, nil
}

// packStreamInto is packStream writing into caller-provided buffers (both
// DataCapacityBytes long; cleared here).
func (c *Codec) packStreamInto(cells []colorspace.Color, stream []byte, suspect []bool) {
	clear(stream)
	clear(suspect)
	for i, col := range cells {
		if i/4 >= len(stream) {
			break
		}
		var bits byte
		if col.IsData() {
			bits = col.Bits()
		} else {
			suspect[i/4] = true
		}
		stream[i/4] |= bits << uint(6-2*(i%4))
	}
}

// DecodeFrame decodes a single clean (unmixed) capture end to end. For
// captures that may mix two frames, use a Receiver instead. When the
// decode-recovery ladder is enabled (Config.RecoveryBudget > 0) failed
// decodes retry under the ladder's hypotheses; DecodeFrameRecover
// additionally reports the hypothesis trace.
func (c *Codec) DecodeFrame(img *raster.Image) (header.Header, []byte, error) {
	hdr, payload, _, err := c.DecodeFrameRecover(img)
	return hdr, payload, err
}

// DecodeFrameRecover is DecodeFrame with the full decode-recovery ladder
// and its trace. One budget (Config.RecoveryBudget) covers the whole
// operation, spent in ladder order: locator re-scan (during the grid
// decode), ranked erasures, then the μ-sweep — each alternative threshold
// re-extracts the grid and re-runs assembly. With RecoveryBudget 0 every
// hypothesis is refused, the trace is nil, and behavior is bit-identical
// to the single-shot decoder.
func (c *Codec) DecodeFrameRecover(img *raster.Image) (header.Header, []byte, *RecoveryTrace, error) {
	c.rec.Inc(obs.MCoreCaptures, 1)
	lad := c.newLadder()
	gd, det, lm, err := c.decodeGridFix(img, lad, nil)
	if err != nil && errors.Is(err, ErrNoCornerTrackers) {
		rot := img.Rotate180()
		if gd2, det2, lm2, err2 := c.decodeGridFix(rot, lad, nil); err2 == nil {
			gd, det, lm, err = gd2, det2, lm2, nil
			img = rot
		}
	}
	if err != nil {
		return header.Header{}, nil, lad.result(), err
	}
	if !gd.HeaderOK {
		return header.Header{}, nil, lad.result(), fmt.Errorf("core: header unreadable: %w", header.ErrCorrupt)
	}
	payload, err := c.assembleWithLadder(gd.Cells, gd.Conf, gd.Header, lad)
	if err == nil {
		return gd.Header, payload, lad.result(), nil
	}
	// Failure-driven μ-sweep: re-extract under the alternative thresholds
	// and retry assembly. The header stays the base pass's — it already
	// passed its CRCs there.
	if det.tvOK && !c.cfg.RecoveryErasuresOnly {
		for _, cand := range recoveryMus {
			if !lad.tryAttempt(cand.hyp) {
				break
			}
			det2 := *det
			det2.tv = colorspace.TVForMu(det.vb, det.vo, cand.mu)
			gd2, err2 := c.extractGrid(img, &det2, lm, gd.Sharpness, nil)
			if err2 != nil {
				continue
			}
			if payload2, e := c.assembleWithLadder(gd2.Cells, gd2.Conf, gd.Header, lad); e == nil {
				lad.win(cand.hyp)
				return gd.Header, payload2, lad.result(), nil
			}
		}
	}
	return gd.Header, nil, lad.result(), err
}
