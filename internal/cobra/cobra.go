// Package cobra implements the COBRA color-barcode system as described in
// the RainBar paper (§II, §III), which uses it as its main baseline:
//
//   - four 3x3 corner trackers (one per corner);
//   - timing reference blocks (TRBs) along all four borders;
//   - block localization as the intersection of the straight line through
//     a row's left/right TRBs with the line through a column's top/bottom
//     TRBs — a global method that accumulates error under perspective and
//     lens distortion (the paper's Fig. 3 critique);
//   - fixed-threshold HSV color recognition preceded by a costly
//     whole-image "HSV enhancement" (§III-F: ~12 of 16 ms per frame);
//   - no frame synchronization: the display rate must stay at or below
//     half the capture rate, or captures mix frames and are lost.
//
// The encoder/decoder run through the same optical channel simulator as
// RainBar so every comparison in the evaluation exercises both systems on
// identical captures.
package cobra

import (
	"errors"
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/core/header"
	"rainbar/internal/crc"
	"rainbar/internal/raster"
	"rainbar/internal/rs"
)

// band is the structural border width in blocks (corner trackers and TRB
// lines); the code area is the grid minus 3 blocks per side, matching the
// paper's (cols-6)x(rows-6) COBRA capacity accounting.
const band = 3

// rsMessageLen is the full RS block length, as in RainBar.
const rsMessageLen = 255

// DefaultRSParity matches RainBar's default so capacity comparisons are
// apples to apples.
const DefaultRSParity = 16

// Ring colors of the four corner trackers (TL, TR, BL, BR).
const (
	RingTL = colorspace.Green
	RingTR = colorspace.Red
	RingBL = colorspace.Blue
	RingBR = colorspace.White
)

// Errors reported by the codec.
var (
	// ErrNoCornerTrackers means fewer than four corner trackers were found.
	ErrNoCornerTrackers = errors.New("cobra: corner trackers not found")
	// ErrBadFrame means error correction or the checksum failed.
	ErrBadFrame = errors.New("cobra: frame failed error correction")
	// ErrPayloadTooLarge means the payload exceeds the frame capacity.
	ErrPayloadTooLarge = errors.New("cobra: payload exceeds frame capacity")
)

// Config describes a COBRA codec.
type Config struct {
	// ScreenW, ScreenH are the sender screen dimensions in pixels.
	ScreenW, ScreenH int
	// BlockSize is the block side in pixels.
	BlockSize int
	// RSParity is the parity bytes per RS message.
	RSParity int
	// DisplayRate and AppType fill the frame headers.
	DisplayRate uint8
	AppType     uint8
}

// Codec encodes and decodes COBRA frames. Immutable and safe for
// concurrent use.
type Codec struct {
	cfg        Config
	cols, rows int
	rsc        *rs.Codec
	msgSizes   []int
	capacity   int
	dataCells  []cell
	hdrCells   []cell
}

type cell struct{ row, col int }

// NewCodec validates and precomputes the layout.
func NewCodec(cfg Config) (*Codec, error) {
	if cfg.BlockSize < 2 {
		return nil, fmt.Errorf("cobra: block size %d too small", cfg.BlockSize)
	}
	cols := cfg.ScreenW / cfg.BlockSize
	rows := cfg.ScreenH / cfg.BlockSize
	if cols < 13 || rows < 10 {
		return nil, fmt.Errorf("cobra: grid %dx%d too small", cols, rows)
	}
	if cfg.RSParity == 0 {
		cfg.RSParity = DefaultRSParity
	}
	rsc, err := rs.New(cfg.RSParity)
	if err != nil {
		return nil, fmt.Errorf("cobra: %w", err)
	}
	c := &Codec{cfg: cfg, cols: cols, rows: rows, rsc: rsc}

	// Header occupies the first code-area row; the rest is data.
	for col := band; col < cols-band; col++ {
		c.hdrCells = append(c.hdrCells, cell{band, col})
	}
	if len(c.hdrCells)*colorspace.BitsPerBlock < header.Bits {
		return nil, fmt.Errorf("cobra: header row too narrow (%d bits)", len(c.hdrCells)*colorspace.BitsPerBlock)
	}
	for row := band + 1; row < rows-band; row++ {
		for col := band; col < cols-band; col++ {
			c.dataCells = append(c.dataCells, cell{row, col})
		}
	}

	area := len(c.dataCells) * colorspace.BitsPerBlock / 8
	remaining := area
	for remaining >= rsMessageLen {
		c.msgSizes = append(c.msgSizes, rsMessageLen-cfg.RSParity)
		remaining -= rsMessageLen
	}
	if remaining > cfg.RSParity {
		c.msgSizes = append(c.msgSizes, remaining-cfg.RSParity)
	}
	for _, k := range c.msgSizes {
		c.capacity += k
	}
	if c.capacity == 0 {
		return nil, fmt.Errorf("cobra: geometry too small for any payload")
	}
	return c, nil
}

// FrameCapacity returns payload bytes per frame.
func (c *Codec) FrameCapacity() int { return c.capacity }

// CodeAreaBlocks counts code-area blocks (data plus header row), the
// paper's §III-B capacity metric: (cols-6)*(rows-6).
func (c *Codec) CodeAreaBlocks() int { return len(c.dataCells) + len(c.hdrCells) }

// ctCenters returns the four corner-tracker centers in grid coordinates
// (TL, TR, BL, BR). CTs are 3x3 at the very corners.
func (c *Codec) ctCenters() [4]cell {
	return [4]cell{
		{1, 1},
		{1, c.cols - 2},
		{c.rows - 2, 1},
		{c.rows - 2, c.cols - 2},
	}
}

// kindAt classifies a grid cell for rendering.
func (c *Codec) kindAt(r, co int) blockKind {
	inCT := func(cr, cc cell) bool {
		return r >= cr.row-1 && r <= cr.row+1 && co >= cc.col-1 && co <= cc.col+1
	}
	cts := c.ctCenters()
	for i, ct := range cts {
		if inCT(ct, ct) {
			if r == ct.row && co == ct.col {
				return kindCTCenter
			}
			return blockKind(int(kindRingTL) + i)
		}
	}
	// TRB lines: one block inside the outermost ring.
	if r == 1 || r == c.rows-2 || co == 1 || co == c.cols-2 {
		if (r+co)%2 == 0 {
			return kindTRBBlack
		}
		return kindTRBWhite
	}
	// Outer border and remaining band: quiet white.
	if r < band || r >= c.rows-band || co < band || co >= c.cols-band {
		return kindQuiet
	}
	if r == band {
		return kindHeader
	}
	return kindData
}

type blockKind uint8

const (
	kindQuiet blockKind = iota + 1
	kindCTCenter
	kindRingTL
	kindRingTR
	kindRingBL
	kindRingBR
	kindTRBBlack
	kindTRBWhite
	kindHeader
	kindData
)

// Frame is one rendered-ready COBRA barcode.
type Frame struct {
	codec  *Codec
	colors []colorspace.Color
}

// Render paints the frame.
func (f *Frame) Render() *raster.Image {
	c := f.codec
	bs := c.cfg.BlockSize
	img := raster.New(c.cols*bs, c.rows*bs)
	for r := 0; r < c.rows; r++ {
		for co := 0; co < c.cols; co++ {
			img.FillRect(co*bs, r*bs, bs, bs, colorspace.Paint(f.colors[r*c.cols+co]))
		}
	}
	return img
}

// EncodeFrame builds one frame around payload (zero-padded to capacity).
func (c *Codec) EncodeFrame(payload []byte, seq uint16, last bool) (*Frame, error) {
	if len(payload) > c.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(payload), c.capacity)
	}
	padded := make([]byte, c.capacity)
	copy(padded, payload)

	stream := make([]byte, 0, len(c.dataCells)/4+1)
	off := 0
	for _, k := range c.msgSizes {
		msg, err := c.rsc.Encode(padded[off : off+k])
		if err != nil {
			return nil, fmt.Errorf("cobra encode: %w", err)
		}
		stream = append(stream, msg...)
		off += k
	}

	hdr := header.Header{
		Seq:           seq,
		Last:          last,
		DisplayRate:   c.cfg.DisplayRate,
		AppType:       c.cfg.AppType,
		FrameChecksum: crc.Sum16(padded),
	}
	f := &Frame{codec: c, colors: make([]colorspace.Color, c.rows*c.cols)}
	for r := 0; r < c.rows; r++ {
		for co := 0; co < c.cols; co++ {
			k := c.kindAt(r, co)
			switch k {
			case kindCTCenter, kindTRBBlack:
				f.colors[r*c.cols+co] = colorspace.Black
			case kindRingTL:
				f.colors[r*c.cols+co] = RingTL
			case kindRingTR:
				f.colors[r*c.cols+co] = RingTR
			case kindRingBL:
				f.colors[r*c.cols+co] = RingBL
			default:
				f.colors[r*c.cols+co] = colorspace.White
			}
		}
	}
	hdrColors, err := hdr.EncodeColors(len(c.hdrCells))
	if err != nil {
		return nil, fmt.Errorf("cobra encode: %w", err)
	}
	for i, cl := range c.hdrCells {
		f.colors[cl.row*c.cols+cl.col] = hdrColors[i]
	}
	for i, cl := range c.dataCells {
		byteIdx := i / 4
		var bits byte
		if byteIdx < len(stream) {
			bits = stream[byteIdx] >> uint(6-2*(i%4))
		}
		f.colors[cl.row*c.cols+cl.col] = colorspace.FromBits(bits)
	}
	return f, nil
}

// decodePayload reverses the RS stream and verifies the checksum.
func (c *Codec) decodePayload(stream []byte, want uint16) ([]byte, error) {
	payload := make([]byte, 0, c.capacity)
	off := 0
	for _, k := range c.msgSizes {
		n := k + c.cfg.RSParity
		data, err := c.rsc.Decode(stream[off:off+n], nil)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		payload = append(payload, data...)
		off += n
	}
	if crc.Sum16(payload) != want {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrBadFrame)
	}
	return payload, nil
}
