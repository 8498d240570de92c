package core

import (
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/core/layout"
	"rainbar/internal/crc"
	"rainbar/internal/obs"
	"rainbar/internal/raster"
	"rainbar/internal/rs"
)

// Frame is one fully laid-out RainBar barcode: a color per grid cell.
type Frame struct {
	geo    *layout.Geometry
	hdr    header.Header
	colors []colorspace.Color // rows*cols, row-major
}

// Header returns the frame's header.
func (f *Frame) Header() header.Header { return f.hdr }

// ColorAt returns the color of grid cell (r, c).
func (f *Frame) ColorAt(r, c int) colorspace.Color {
	return f.colors[r*f.geo.Cols()+c]
}

// Render paints the frame at full screen resolution.
func (f *Frame) Render() *raster.Image {
	g := f.geo
	bs := g.BlockSize()
	img := raster.New(g.Cols()*bs, g.Rows()*bs)
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			img.FillRect(c*bs, r*bs, bs, bs, colorspace.Paint(f.ColorAt(r, c)))
		}
	}
	return img
}

// EncodeFrame builds one frame carrying payload (at most FrameCapacity
// bytes; shorter payloads are zero-padded). seq and last populate the
// header; the tracking-bar color follows seq.
func (c *Codec) EncodeFrame(payload []byte, seq uint16, last bool) (*Frame, error) {
	if len(payload) > c.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(payload), c.capacity)
	}
	if seq > header.MaxSeq {
		return nil, fmt.Errorf("core: sequence %d out of range", seq)
	}
	padded := make([]byte, c.capacity)
	copy(padded, payload)

	stream, err := c.encodeStream(padded)
	if err != nil {
		return nil, err
	}

	hdr := header.Header{
		Seq:           seq,
		Last:          last,
		DisplayRate:   c.cfg.DisplayRate,
		AppType:       c.cfg.AppType,
		FrameChecksum: crc.Sum16(padded),
	}
	return c.buildFrame(hdr, stream)
}

// encodeStream RS-encodes the padded payload into the frame's data-area
// byte stream (exactly DataCapacityBytes long; trailing dead padding is
// zero).
func (c *Codec) encodeStream(padded []byte) ([]byte, error) {
	g := c.cfg.Geometry
	stream := make([]byte, 0, g.DataCapacityBytes())
	off := 0
	for _, k := range c.msgSizes {
		msg, err := c.rsc.Encode(padded[off : off+k])
		if err != nil {
			return nil, fmt.Errorf("core encode: %w", err)
		}
		stream = append(stream, msg...)
		off += k
	}
	for len(stream) < g.DataCapacityBytes() {
		stream = append(stream, 0)
	}
	return stream, nil
}

// buildFrame paints every structural and data cell.
func (c *Codec) buildFrame(hdr header.Header, stream []byte) (*Frame, error) {
	g := c.cfg.Geometry
	f := &Frame{
		geo:    g,
		hdr:    hdr,
		colors: make([]colorspace.Color, g.Rows()*g.Cols()),
	}
	bar := hdr.TrackingBar()
	for r := 0; r < g.Rows(); r++ {
		for c2 := 0; c2 < g.Cols(); c2++ {
			var col colorspace.Color
			switch g.KindAt(r, c2) {
			case layout.KindTrackingBar:
				col = bar
			case layout.KindCTCenter, layout.KindLocator:
				col = colorspace.Black
			case layout.KindCTRing:
				if c2 < g.Cols()/2 { // left tracker
					col = layout.CTRingColorLeft
				} else {
					col = layout.CTRingColorRight
				}
			default:
				col = colorspace.White // overwritten below for header/data
			}
			f.colors[r*g.Cols()+c2] = col
		}
	}

	hdrColors, err := hdr.EncodeColors(len(g.HeaderCells()))
	if err != nil {
		return nil, fmt.Errorf("core encode: %w", err)
	}
	for i, cell := range g.HeaderCells() {
		f.colors[cell.Row*g.Cols()+cell.Col] = hdrColors[i]
	}

	dataCells := g.DataCells()
	for i, cell := range dataCells {
		byteIdx := i / 4
		shift := uint(6 - 2*(i%4))
		var bits byte
		if byteIdx < len(stream) {
			bits = stream[byteIdx] >> shift
		}
		f.colors[cell.Row*g.Cols()+cell.Col] = colorspace.FromBits(bits)
	}
	return f, nil
}

// EncodeAll splits data into consecutive frames. Sequence numbers start at
// startSeq and the final frame carries the Last flag.
func (c *Codec) EncodeAll(data []byte, startSeq uint16) ([]*Frame, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	n := (len(data) + c.capacity - 1) / c.capacity
	frames := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		lo := i * c.capacity
		hi := lo + c.capacity
		if hi > len(data) {
			hi = len(data)
		}
		seq := (startSeq + uint16(i)) & header.MaxSeq
		f, err := c.EncodeFrame(data[lo:hi], seq, i == n-1)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// planFunc enumerates, in priority order, the erasure sets to try for the
// RS message occupying stream[off:off+n]. Plans run until one decodes; a
// nil plan means errors-only decoding.
type planFunc func(off, n int) [][]int

// asmScratch owns the payload-assembly intermediates: the packed stream
// and suspect map, the per-message erasure list, the RS working buffers
// and the assembled payload. Receivers keep one; the one-shot public API
// assembles on a fresh one.
type asmScratch struct {
	stream   []byte
	suspect  []bool
	erasures []int
	payload  []byte
	rs       rs.Scratch
}

// decodeLegacyScratch is the base assembly pass's RS stage: it reverses
// encodeStream over the scratch buffers, splitting the data-area stream
// into RS messages, correcting each, and verifying the header's frame
// checksum. suspect marks stream bytes containing black-misread cells; a
// message's suspects are passed to RS as erasures when few enough to help
// (then retried blind, since the guesses may be wrong), and a message with
// none or too many decodes errors-only. The recovery ladder's rankedPlans
// subsumes this all-or-nothing drop.
func (c *Codec) decodeLegacyScratch(stream []byte, suspect []bool, want uint16, as *asmScratch) ([]byte, error) {
	endCorrect := c.rec.Span(obsSpanCorrect)
	var corrected, erased int64
	defer func() {
		endCorrect()
		if corrected > 0 {
			c.rec.Inc(obs.MCoreRSErrorsCorrected, corrected)
		}
		if erased > 0 {
			c.rec.Inc(obs.MCoreRSErasures, erased)
		}
	}()

	if cap(as.payload) < c.capacity {
		as.payload = make([]byte, 0, c.capacity)
	}
	payload := as.payload[:0]
	off := 0
	for _, k := range c.msgSizes {
		n := k + c.cfg.RSParity
		erasures := as.erasures[:0]
		for j := 0; j < n; j++ {
			if suspect[off+j] {
				erasures = append(erasures, j)
			}
		}
		as.erasures = erasures
		plan := erasures
		if len(erasures) == 0 || len(erasures) > c.cfg.RSParity-2 {
			plan = nil
		}
		data, fixed, err := c.rsc.DecodeCountedScratch(stream[off:off+n], plan, &as.rs)
		if err != nil && plan != nil {
			// The erasure guesses may themselves be wrong; retry blind.
			plan = nil
			data, fixed, err = c.rsc.DecodeCountedScratch(stream[off:off+n], nil, &as.rs)
		}
		if err != nil {
			as.payload = payload
			return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		corrected += int64(fixed)
		erased += int64(len(plan))
		// data aliases the RS scratch; append copies it out before the next
		// message reuses the buffer.
		payload = append(payload, data...)
		off += n
	}
	as.payload = payload
	if crc.Sum16(payload) != want {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrBadFrame)
	}
	return payload, nil
}

// decodeWithPlans is the ranked-erasure cascade of the recovery ladder,
// run on as: for each message, try the erasure plans in order until one
// decodes, then verify the frame checksum over the assembled payload. The
// returned payload aliases as.payload.
func (c *Codec) decodeWithPlans(stream []byte, want uint16, plans planFunc, as *asmScratch) ([]byte, error) {
	endCorrect := c.rec.Span(obsSpanCorrect)
	var corrected, erased int64
	defer func() {
		endCorrect()
		if corrected > 0 {
			c.rec.Inc(obs.MCoreRSErrorsCorrected, corrected)
		}
		if erased > 0 {
			c.rec.Inc(obs.MCoreRSErasures, erased)
		}
	}()

	payload := as.payload[:0]
	off := 0
	for _, k := range c.msgSizes {
		n := k + c.cfg.RSParity
		var data []byte
		var err error
		for _, plan := range plans(off, n) {
			var fixed int
			data, fixed, err = c.rsc.DecodeCountedScratch(stream[off:off+n], plan, &as.rs)
			if err == nil {
				corrected += int64(fixed)
				erased += int64(len(plan))
				break
			}
		}
		if err != nil {
			as.payload = payload
			return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		// data aliases the RS scratch; append copies it out.
		payload = append(payload, data...)
		off += n
	}
	as.payload = payload
	if crc.Sum16(payload) != want {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrBadFrame)
	}
	return payload, nil
}
