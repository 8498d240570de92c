// Package lightsync implements a LightSync-style black-and-white barcode
// link, the third system the RainBar paper positions itself against
// (§I/§II): LightSync raised throughput by raising the display rate and
// solved rolling-shutter mixing with *per-line* synchronization metadata,
// but "has only been shown to work efficiently for black and white
// barcodes" — one bit per block instead of RainBar's two.
//
// This implementation keeps LightSync's essential trade-offs measurable
// against RainBar on identical captures:
//
//   - data blocks are black/white (1 bit), halving per-frame capacity;
//   - every block row starts with a line header (3-bit frame counter plus
//     even parity, Manchester-style robustness via B/W), so each captured
//     row is attributed to its display frame independently — no tracking
//     bars and no frame header row needed;
//   - detection reuses the same corner-tracker/locator machinery as
//     RainBar (green/red rings; the only colored structure), so the
//     comparison isolates the data-alphabet and synchronization design.
package lightsync

import (
	"errors"
	"fmt"

	"rainbar/internal/colorspace"
	"rainbar/internal/core"
	"rainbar/internal/core/layout"
	"rainbar/internal/crc"
	"rainbar/internal/raster"
	"rainbar/internal/rs"
)

// lineHeaderBits is the per-row metadata: a 3-bit frame counter and one
// even-parity bit, each bit one block.
const lineHeaderBits = 4

// seqMod is the line counter modulus (3 bits).
const seqMod = 8

// rsMessageLen matches the other codecs.
const rsMessageLen = 255

// DefaultRSParity matches RainBar for a fair capacity comparison.
const DefaultRSParity = 16

// Errors reported by the codec.
var (
	// ErrBadFrame means error correction or the checksum failed.
	ErrBadFrame = errors.New("lightsync: frame failed error correction")
	// ErrPayloadTooLarge means the payload exceeds frame capacity.
	ErrPayloadTooLarge = errors.New("lightsync: payload exceeds frame capacity")
)

// Config describes a LightSync codec.
type Config struct {
	// ScreenW, ScreenH, BlockSize define the grid as in the other codecs.
	ScreenW, ScreenH, BlockSize int
	// RSParity is the parity bytes per RS message.
	RSParity int
}

// Codec encodes and decodes LightSync frames. Immutable and safe for
// concurrent use.
type Codec struct {
	cfg      Config
	geo      *layout.Geometry // reused for structure: CTs, locators
	fixer    *core.Codec      // geometric front-end shared with RainBar
	rsc      *rs.Codec
	msgSizes []int
	capacity int
	// dataCells excludes the per-row line-header cells and the guard
	// columns around the locator columns.
	dataCells []layout.Cell
	// lineCells[row] lists the 4 line-header cells of each data row.
	lineCells map[int][]layout.Cell
}

// NewCodec validates and precomputes the layout. The underlying grid is
// RainBar's (corner trackers and locator columns are identical); RainBar's
// header row and tracking bars become white filler here, the first
// lineHeaderBits data cells of every row carry the line header, and —
// because half the B/W data blocks are black — the cells in and adjacent
// to the locator columns are forced white so the progressive locator walk
// still finds isolated black blocks.
func NewCodec(cfg Config) (*Codec, error) {
	if cfg.RSParity == 0 {
		cfg.RSParity = DefaultRSParity
	}
	geo, err := layout.NewGeometry(cfg.ScreenW, cfg.ScreenH, cfg.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("lightsync: %w", err)
	}
	fixer, err := core.NewCodec(core.Config{Geometry: geo, RSParity: cfg.RSParity})
	if err != nil {
		return nil, fmt.Errorf("lightsync: %w", err)
	}
	rsc, err := rs.New(cfg.RSParity)
	if err != nil {
		return nil, fmt.Errorf("lightsync: %w", err)
	}
	c := &Codec{cfg: cfg, geo: geo, fixer: fixer, rsc: rsc, lineCells: make(map[int][]layout.Cell)}

	colL, colM, colR := geo.LocatorCols()
	guarded := map[int]bool{
		colL: true, colL - 1: true, colL + 1: true,
		colM: true, colM - 1: true, colM + 1: true,
		colR: true, colR - 1: true, colR + 1: true,
	}

	// Walk RainBar's data cells row by row; the first four unguarded
	// cells of each row become the line header.
	perRow := make(map[int][]layout.Cell)
	for _, cell := range geo.DataCells() {
		if guarded[cell.Col] {
			continue
		}
		perRow[cell.Row] = append(perRow[cell.Row], cell)
	}
	//lint:ordered dataCells is canonicalized by sortCells below; lineCells is keyed per row, so iteration order never reaches output
	for row, cells := range perRow {
		if len(cells) <= lineHeaderBits {
			continue // row too short to carry data; unused
		}
		c.lineCells[row] = cells[:lineHeaderBits]
		c.dataCells = append(c.dataCells, cells[lineHeaderBits:]...)
	}
	sortCells(c.dataCells)

	bits := len(c.dataCells) // 1 bit per block
	area := bits / 8
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
	// Two bytes of every frame carry the sequence number and two more the
	// payload checksum (LightSync has no header row; metadata rides in
	// the payload prefix).
	c.capacity -= metaLen
	if c.capacity <= 0 {
		return nil, fmt.Errorf("lightsync: geometry too small for any payload")
	}
	return c, nil
}

func sortCells(cells []layout.Cell) {
	// Insertion sort by (row, col); cell counts are tiny relative to the
	// cost of rendering, and the input is nearly sorted already.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0; j-- {
			a, b := cells[j-1], cells[j]
			if a.Row < b.Row || (a.Row == b.Row && a.Col < b.Col) {
				break
			}
			cells[j-1], cells[j] = b, a
		}
	}
}

// metaLen is the in-payload metadata: seq(2) + CRC-16 of the payload (2).
const metaLen = 4

// FrameCapacity returns the payload bytes per frame.
func (c *Codec) FrameCapacity() int { return c.capacity }

// Frame is one encoded LightSync barcode.
type Frame struct {
	codec  *Codec
	colors []colorspace.Color
}

// Render paints the frame.
func (f *Frame) Render() *raster.Image {
	g := f.codec.geo
	bs := g.BlockSize()
	img := raster.New(g.Cols()*bs, g.Rows()*bs)
	for r := 0; r < g.Rows(); r++ {
		for co := 0; co < g.Cols(); co++ {
			img.FillRect(co*bs, r*bs, bs, bs, colorspace.Paint(f.colors[r*g.Cols()+co]))
		}
	}
	return img
}

// EncodeFrame builds one frame (payload zero-padded to capacity).
func (c *Codec) EncodeFrame(payload []byte, seq uint16) (*Frame, error) {
	if len(payload) > c.capacity {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadTooLarge, len(payload), c.capacity)
	}
	blob := make([]byte, c.capacity+metaLen)
	blob[0] = byte(seq >> 8)
	blob[1] = byte(seq)
	copy(blob[metaLen:], payload)
	sum := crc.Sum16(blob[metaLen:])
	blob[2] = byte(sum >> 8)
	blob[3] = byte(sum)

	stream := make([]byte, 0, len(c.dataCells)/8+1)
	off := 0
	for _, k := range c.msgSizes {
		msg, err := c.rsc.Encode(blob[off : off+k])
		if err != nil {
			return nil, fmt.Errorf("lightsync encode: %w", err)
		}
		stream = append(stream, msg...)
		off += k
	}

	g := c.geo
	f := &Frame{codec: c, colors: make([]colorspace.Color, g.Rows()*g.Cols())}
	// Structure: reuse RainBar's structural cells; everything RainBar
	// calls header/tracking-bar becomes white filler here (the line
	// headers make them unnecessary).
	for r := 0; r < g.Rows(); r++ {
		for co := 0; co < g.Cols(); co++ {
			var col colorspace.Color
			switch g.KindAt(r, co) {
			case layout.KindCTCenter, layout.KindLocator:
				col = colorspace.Black
			case layout.KindCTRing:
				if co < g.Cols()/2 {
					col = layout.CTRingColorLeft
				} else {
					col = layout.CTRingColorRight
				}
			default:
				col = colorspace.White
			}
			f.colors[r*g.Cols()+co] = col
		}
	}
	// Line headers: 3-bit counter + even parity, black = 1.
	for row, cells := range c.lineCells {
		ctr := byte(seq % seqMod)
		parity := (ctr>>2 ^ ctr>>1 ^ ctr) & 1
		bits := [lineHeaderBits]byte{ctr >> 2 & 1, ctr >> 1 & 1, ctr & 1, parity}
		for i, cell := range cells {
			if bits[i] == 1 {
				f.colors[cell.Row*g.Cols()+cell.Col] = colorspace.Black
			} else {
				f.colors[cell.Row*g.Cols()+cell.Col] = colorspace.White
			}
		}
		_ = row
	}
	// Data: 1 bit per block, black = 1.
	for i, cell := range c.dataCells {
		byteIdx := i / 8
		var bit byte
		if byteIdx < len(stream) {
			bit = stream[byteIdx] >> uint(7-i%8) & 1
		}
		if bit == 1 {
			f.colors[cell.Row*g.Cols()+cell.Col] = colorspace.Black
		} else {
			f.colors[cell.Row*g.Cols()+cell.Col] = colorspace.White
		}
	}
	return f, nil
}
