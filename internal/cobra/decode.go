package cobra

import (
	"fmt"
	"sort"
	"time"

	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/geometry"
	"rainbar/internal/raster"
	"rainbar/internal/vision"
)

// EnhancementCost is the modeled cost of COBRA's whole-image HSV
// enhancement pass; the paper reports 12 of the 16 ms COBRA spends per
// frame on it (§III-F). RainBar's adaptive thresholding avoids it.
const EnhancementCost = 12 * time.Millisecond

// GridDecode is the geometry-level decode of one capture.
type GridDecode struct {
	// Header is the decoded frame header.
	Header header.Header
	// Cells holds the classified data-cell colors in layout order.
	Cells []colorspace.Color
	// Sharpness is the capture's focus metric (blur assessment).
	Sharpness float64
}

// fixedClassifier is COBRA's color recognizer: the same HSV rules as
// RainBar but with a fixed value threshold instead of the per-frame
// adaptive estimate — the brightness sensitivity the paper criticizes.
func fixedClassifier() colorspace.Classifier {
	return colorspace.NewClassifier(colorspace.DefaultTV)
}

// detectCTs finds the four corner trackers. TL/TR/BL have unique ring
// colors (green/red/blue); the BR tracker's white ring is ambiguous with
// the timing blocks, so it is selected by geometric consistency: the white
// ring candidate nearest the parallelogram completion TR + BL - TL.
func (c *Codec) detectCTs(img *raster.Image) (tl, tr, bl, br geometry.Point, err error) {
	cl := fixedClassifier()
	const ds = 2
	if img.W < 8 || img.H < 8 {
		err = fmt.Errorf("cobra: capture %dx%d too small", img.W, img.H)
		return
	}
	var bs vision.BlobScratch
	blobs, mw, mh := bs.BlackBlobs(img, cl, ds)

	type cand struct {
		p     geometry.Point
		votes int
	}
	var bestG, bestR, bestB cand
	var whites []cand

	for i := range blobs {
		b := &blobs[i]
		w, h := b.Width(), b.Height()
		if w < 2 || h < 2 || w > mw/4 || h > mh/4 {
			continue
		}
		if asp := float64(w) / float64(h); asp < 0.4 || asp > 2.5 {
			continue
		}
		if fill := float64(b.Size) / float64(w*h); fill < 0.5 {
			continue
		}
		cx, cy := b.Centroid()
		p := geometry.Point{X: cx * ds, Y: cy * ds}
		dx, dy := float64(w*ds)*1.05, float64(h*ds)*1.05
		counts := vision.RingVotes(img, cl, p, dx, dy)
		const needed = 7
		refined := func() geometry.Point {
			q, _ := vision.KMeansCorrect(img, cl, p, (dx+dy)/2)
			return q
		}
		if counts[colorspace.Green] >= needed && counts[colorspace.Green] > bestG.votes {
			bestG = cand{refined(), counts[colorspace.Green]}
		}
		if counts[colorspace.Red] >= needed && counts[colorspace.Red] > bestR.votes {
			bestR = cand{refined(), counts[colorspace.Red]}
		}
		if counts[colorspace.Blue] >= needed && counts[colorspace.Blue] > bestB.votes {
			bestB = cand{refined(), counts[colorspace.Blue]}
		}
		if counts[colorspace.White] >= needed {
			whites = append(whites, cand{refined(), counts[colorspace.White]})
		}
	}

	if bestG.votes == 0 || bestR.votes == 0 || bestB.votes == 0 {
		err = fmt.Errorf("%w: green/red/blue rings: %d/%d/%d votes", ErrNoCornerTrackers, bestG.votes, bestR.votes, bestB.votes)
		return
	}
	tl, tr, bl = bestG.p, bestR.p, bestB.p

	predicted := tr.Add(bl).Sub(tl)
	bst := tl.Dist(tr) / float64(c.cols-3)
	// Perspective bends the corner quad away from a parallelogram, so the
	// prediction is loose; accept the nearest white ring within a wide
	// radius.
	bestDist := 12 * bst
	found := false
	for _, w := range whites {
		if d := w.p.Dist(predicted); d < bestDist {
			bestDist = d
			br = w.p
			found = true
		}
	}
	if !found {
		err = fmt.Errorf("%w: bottom-right (white ring) not found near prediction", ErrNoCornerTrackers)
		return
	}
	if tl.X >= tr.X || bl.X >= br.X || tl.Y >= bl.Y || tr.Y >= br.Y {
		err = fmt.Errorf("%w: implausible corner arrangement", ErrNoCornerTrackers)
	}
	return tl, tr, bl, br, err
}

// blockCenter implements COBRA's global line-intersection localization:
// straight lines between corner trackers stand in for the TRB rows and
// columns, so the estimate degrades under perspective and lens distortion
// (the paper's Fig. 3).
func (c *Codec) blockCenter(tl, tr, bl, br geometry.Point, row, col int) geometry.Point {
	tRow := float64(row-1) / float64(c.rows-3)
	tCol := float64(col-1) / float64(c.cols-3)
	left := geometry.Lerp(tl, bl, tRow)
	right := geometry.Lerp(tr, br, tRow)
	top := geometry.Lerp(tl, tr, tCol)
	bottom := geometry.Lerp(bl, br, tCol)
	p, ok := geometry.LineIntersect(left, right, top, bottom)
	if !ok {
		return geometry.Mid(left, right)
	}
	return p
}

// LocateCenters runs corner detection and line-intersection localization
// only, returning the estimated center of every data cell in layout order.
// Used by the localization-error experiment (paper Fig. 3/4).
func (c *Codec) LocateCenters(img *raster.Image) ([]geometry.Point, error) {
	tl, tr, bl, br, err := c.detectCTs(img)
	if err != nil {
		return nil, err
	}
	out := make([]geometry.Point, len(c.dataCells))
	for i, cell := range c.dataCells {
		out[i] = c.blockCenter(tl, tr, bl, br, cell.row, cell.col)
	}
	return out, nil
}

// DataCellGrid returns the grid coordinates (row, col) of every data cell
// in layout order, for ground-truth comparisons.
func (c *Codec) DataCellGrid() [][2]int {
	out := make([][2]int, len(c.dataCells))
	for i, cell := range c.dataCells {
		out[i] = [2]int{cell.row, cell.col}
	}
	return out
}

// DecodeGrid classifies the header and every data cell of one capture.
func (c *Codec) DecodeGrid(img *raster.Image) (*GridDecode, error) {
	tl, tr, bl, br, err := c.detectCTs(img)
	if err != nil {
		return nil, err
	}
	cl := fixedClassifier()
	sample := func(row, col int) colorspace.Color {
		p := c.blockCenter(tl, tr, bl, br, row, col)
		return cl.ClassifyRGB(img.MeanFilterAt(int(p.X+0.5), int(p.Y+0.5)))
	}

	strip := make([]colorspace.Color, len(c.hdrCells))
	for i, cell := range c.hdrCells {
		strip[i] = sample(cell.row, cell.col)
	}
	hdr, err := header.DecodeColors(strip)
	if err != nil {
		return nil, fmt.Errorf("cobra: header unreadable: %w", err)
	}

	gd := &GridDecode{
		Header:    hdr,
		Cells:     make([]colorspace.Color, len(c.dataCells)),
		Sharpness: img.Sharpness(nil),
	}
	for i, cell := range c.dataCells {
		gd.Cells[i] = sample(cell.row, cell.col)
	}
	return gd, nil
}

// AssemblePayload packs cell colors and runs RS + checksum verification.
func (c *Codec) AssemblePayload(cells []colorspace.Color, hdr header.Header) ([]byte, error) {
	if len(cells) != len(c.dataCells) {
		return nil, fmt.Errorf("cobra: %d cells, want %d", len(cells), len(c.dataCells))
	}
	stream := make([]byte, len(c.dataCells)/4+1)
	for i, col := range cells {
		var bits byte
		if col.IsData() {
			bits = col.Bits()
		}
		stream[i/4] |= bits << uint(6-2*(i%4))
	}
	total := 0
	for _, k := range c.msgSizes {
		total += k + c.cfg.RSParity
	}
	return c.decodePayload(stream[:total], hdr.FrameChecksum)
}

// Receiver accumulates captures the way COBRA's pipeline does: the
// protocol assumes the display rate is exactly half the capture rate, so
// consecutive captures arrive in pairs showing the same frame; blur
// assessment keeps the sharper of each pair and discards the other
// ("wasteful to process captured images of the same frame", §III-D).
// This pairing is what breaks past f_c/2 — a pair may then straddle two
// display frames, and whichever frame only appeared in the discarded
// capture is lost. RainBar's tracking bars exist to avoid exactly this.
type Receiver struct {
	codec   *Codec
	best    map[uint16]*GridDecode
	pending *raster.Image // first capture of the current pair
}

// NewReceiver creates a COBRA receiver.
func NewReceiver(c *Codec) *Receiver {
	return &Receiver{codec: c, best: make(map[uint16]*GridDecode)}
}

// Ingest processes one capture. Captures are consumed in pairs; the
// second capture of a pair triggers blur assessment and a decode of the
// sharper one. Decode errors of the selected capture are returned but the
// stream continues.
func (rx *Receiver) Ingest(img *raster.Image) error {
	if rx.pending == nil {
		rx.pending = img
		return nil
	}
	first := rx.pending
	rx.pending = nil
	selected := first
	if img.Sharpness(nil) > first.Sharpness(nil) {
		selected = img
	}
	return rx.decodeSelected(selected)
}

// Flush processes a trailing unpaired capture at stream end.
func (rx *Receiver) Flush() {
	if rx.pending != nil {
		_ = rx.decodeSelected(rx.pending)
		rx.pending = nil
	}
}

func (rx *Receiver) decodeSelected(img *raster.Image) error {
	gd, err := rx.codec.DecodeGrid(img)
	if err != nil {
		return err
	}
	prev, ok := rx.best[gd.Header.Seq]
	if !ok || gd.Sharpness > prev.Sharpness {
		rx.best[gd.Header.Seq] = gd
	}
	return nil
}

// DecodedFrame is one reassembled COBRA frame.
type DecodedFrame struct {
	Header  header.Header
	Payload []byte
	Err     error
}

// Frames decodes every accumulated frame, in sequence order.
func (rx *Receiver) Frames() []*DecodedFrame {
	seqs := make([]int, 0, len(rx.best))
	for s := range rx.best {
		seqs = append(seqs, int(s))
	}
	sort.Ints(seqs)
	out := make([]*DecodedFrame, 0, len(seqs))
	for _, s := range seqs {
		gd := rx.best[uint16(s)]
		payload, err := rx.codec.AssemblePayload(gd.Cells, gd.Header)
		out = append(out, &DecodedFrame{Header: gd.Header, Payload: payload, Err: err})
	}
	return out
}
