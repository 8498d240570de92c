// Package layout defines the RainBar color-barcode frame geometry
// (paper §III-B, Fig. 2): four border tracking bars, two corner trackers
// (top-left green ring, top-right red ring), a header row between the
// trackers, three columns of code locators (left and right aligned with
// the corner-tracker centers, one in the middle), and the data-carrying
// code area — which, unlike COBRA, includes the colored blocks separating
// consecutive code locators.
//
// All geometry is expressed on a grid of square blocks of BlockSize pixels;
// the Galaxy S4 defaults (1920x1080, 13 px blocks -> 147x83 grid) reproduce
// the paper's capacity analysis.
package layout

import (
	"errors"
	"fmt"

	"rainbar/internal/colorspace"
)

// Structural grid constants (block units).
const (
	// ctSize is the corner-tracker side length (3x3 blocks).
	ctSize = 3
	// locatorSpacing is the row distance between consecutive code
	// locators in a column; the block between them carries data.
	locatorSpacing = 2
)

// Cell addresses one block in the grid.
type Cell struct {
	Row, Col int
}

// Kind classifies a grid cell.
type Kind uint8

// Cell kinds. Data cells carry 2 payload bits each; header cells carry
// 2 header bits each; the rest are structural.
const (
	KindTrackingBar Kind = iota + 1
	KindCTRing
	KindCTCenter
	KindHeader
	KindLocator
	KindData
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindTrackingBar:
		return "tracking-bar"
	case KindCTRing:
		return "ct-ring"
	case KindCTCenter:
		return "ct-center"
	case KindHeader:
		return "header"
	case KindLocator:
		return "locator"
	case KindData:
		return "data"
	default:
		return "invalid"
	}
}

// Geometry is a validated RainBar grid for a given screen and block size.
// It is immutable after NewGeometry; methods are safe for concurrent use.
type Geometry struct {
	cols, rows int
	blockSize  int
	screenW    int
	screenH    int

	colL, colM, colR int   // locator column indices
	locRows          []int // locator row indices, ascending
	dataCells        []Cell
	headerCells      []Cell
}

// Minimum grid dimensions for the layout to fit (two corner trackers, a
// header gap, three distinct locator columns, and at least two locator
// rows).
const (
	MinCols = 19
	MinRows = 10
)

// MaxScreenPx caps each side of the screen. The geometry's cell tables and
// every frame rendered on it are sized from the screen, so a screen
// described by outside input must be bounded before any of them is.
const MaxScreenPx = 4096

// ErrScreenTooLarge reports a screen side beyond MaxScreenPx.
var ErrScreenTooLarge = errors.New("layout: screen larger than 4096 px a side")

// NewGeometry lays out a grid on a screenW x screenH pixel screen with
// square blocks of blockSize pixels. Screens wider or taller than
// MaxScreenPx fail with ErrScreenTooLarge.
func NewGeometry(screenW, screenH, blockSize int) (*Geometry, error) {
	if screenW > MaxScreenPx || screenH > MaxScreenPx {
		return nil, fmt.Errorf("%w: %dx%d", ErrScreenTooLarge, screenW, screenH)
	}
	if blockSize < 2 {
		return nil, fmt.Errorf("layout: block size %d px too small", blockSize)
	}
	cols := screenW / blockSize
	rows := screenH / blockSize
	if cols < MinCols || rows < MinRows {
		return nil, fmt.Errorf("layout: grid %dx%d below minimum %dx%d (screen %dx%d, block %d)",
			cols, rows, MinCols, MinRows, screenW, screenH, blockSize)
	}
	g := &Geometry{
		cols:      cols,
		rows:      rows,
		blockSize: blockSize,
		screenW:   screenW,
		screenH:   screenH,
		colL:      2,
		colM:      (cols - 1) / 2,
		colR:      cols - 3,
	}
	for r := ctSize - 1; r <= rows-2; r += locatorSpacing {
		g.locRows = append(g.locRows, r)
	}
	for r := 1; r <= rows-2; r++ {
		for c := 1; c <= cols-2; c++ {
			switch g.KindAt(r, c) {
			case KindData:
				g.dataCells = append(g.dataCells, Cell{r, c})
			case KindHeader:
				g.headerCells = append(g.headerCells, Cell{r, c})
			}
		}
	}
	return g, nil
}

// Cols returns the number of block columns.
func (g *Geometry) Cols() int { return g.cols }

// Rows returns the number of block rows.
func (g *Geometry) Rows() int { return g.rows }

// BlockSize returns the block side length in pixels.
func (g *Geometry) BlockSize() int { return g.blockSize }

// ScreenW returns the screen width in pixels.
func (g *Geometry) ScreenW() int { return g.screenW }

// ScreenH returns the screen height in pixels.
func (g *Geometry) ScreenH() int { return g.screenH }

// LocatorCols returns the left, middle and right locator column indices.
func (g *Geometry) LocatorCols() (left, mid, right int) {
	return g.colL, g.colM, g.colR
}

// LocatorRows returns the locator row indices (ascending). The first entry
// is the corner-tracker center row.
func (g *Geometry) LocatorRows() []int {
	out := make([]int, len(g.locRows))
	copy(out, g.locRows)
	return out
}

// CTLeftCenter returns the grid cell of the left corner-tracker center.
func (g *Geometry) CTLeftCenter() Cell { return Cell{ctSize - 1, 2} }

// CTRightCenter returns the grid cell of the right corner-tracker center.
func (g *Geometry) CTRightCenter() Cell { return Cell{ctSize - 1, g.cols - 3} }

// inCT reports whether (r, c) is inside one of the two corner trackers.
func (g *Geometry) inCT(r, c int) bool {
	if r < 1 || r > ctSize {
		return false
	}
	return (c >= 1 && c <= ctSize) || (c >= g.cols-1-ctSize && c <= g.cols-2)
}

// KindAt classifies cell (r, c). Out-of-grid cells return 0.
func (g *Geometry) KindAt(r, c int) Kind {
	if r < 0 || r >= g.rows || c < 0 || c >= g.cols {
		return 0
	}
	if r == 0 || r == g.rows-1 || c == 0 || c == g.cols-1 {
		return KindTrackingBar
	}
	if g.inCT(r, c) {
		ct := g.CTLeftCenter()
		if c > g.cols/2 {
			ct = g.CTRightCenter()
		}
		if r == ct.Row && c == ct.Col {
			return KindCTCenter
		}
		return KindCTRing
	}
	if r == 1 && c > ctSize && c < g.cols-1-ctSize {
		return KindHeader
	}
	if (c == g.colL || c == g.colM || c == g.colR) && g.isLocatorRow(r) {
		return KindLocator
	}
	return KindData
}

func (g *Geometry) isLocatorRow(r int) bool {
	return r >= ctSize-1 && r <= g.rows-2 && (r-(ctSize-1))%locatorSpacing == 0
}

// DataCells returns the data cells in row-major order. The returned slice
// is shared; callers must not modify it.
func (g *Geometry) DataCells() []Cell { return g.dataCells }

// HeaderCells returns the header cells left to right (shared; read-only).
func (g *Geometry) HeaderCells() []Cell { return g.headerCells }

// DataCapacityBits returns the payload capacity of the code area in bits.
func (g *Geometry) DataCapacityBits() int {
	return len(g.dataCells) * colorspace.BitsPerBlock
}

// DataCapacityBytes returns the payload capacity in whole bytes.
func (g *Geometry) DataCapacityBytes() int { return g.DataCapacityBits() / 8 }

// HeaderCapacityBits returns the bit capacity of the header row.
func (g *Geometry) HeaderCapacityBits() int {
	return len(g.headerCells) * colorspace.BitsPerBlock
}

// CodeAreaBlocks counts the blocks the paper's capacity analysis calls
// "code area": data blocks plus the header blocks (§III-B counts the header
// as part of the code area).
func (g *Geometry) CodeAreaBlocks() int {
	return len(g.dataCells) + len(g.headerCells)
}

// BlockCenterPx returns the pixel center of cell (r, c) on the rendered
// screen.
func (g *Geometry) BlockCenterPx(r, c int) (x, y float64) {
	bs := float64(g.blockSize)
	return (float64(c) + 0.5) * bs, (float64(r) + 0.5) * bs
}

// TrackingBarColor returns the tracking-bar color for a frame sequence
// number: the low 2 bits of seq select white/red/green/blue, so any four
// consecutive frames use distinct bars (§III-B).
func TrackingBarColor(seq uint16) colorspace.Color {
	return colorspace.FromBits(byte(seq))
}

// BarDiff returns the cyclic difference d_t between an observed tracking
// bar color and the frame's own bar color (from its sequence number):
// 0 = row belongs to this frame, 1 = row belongs to the next frame,
// >= 2 = inconsistent (drop the capture).
func BarDiff(observed, own colorspace.Color) int {
	return int((uint8(observed) + colorspace.NumDataColors - uint8(own)) % colorspace.NumDataColors)
}

// CTRingColorLeft and CTRingColorRight are the corner-tracker ring colors
// (paper: green top-left, red top-right).
const (
	CTRingColorLeft  = colorspace.Green
	CTRingColorRight = colorspace.Red
)
