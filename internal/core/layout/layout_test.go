package layout

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"rainbar/internal/colorspace"
)

// s4 returns the paper's reference geometry: Galaxy S4 screen, 13 px blocks.
func s4(t *testing.T) *Geometry {
	t.Helper()
	g, err := NewGeometry(1920, 1080, 13)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestS4GridDimensions(t *testing.T) {
	g := s4(t)
	// Paper §III-B: 1920x1080 at 13 px -> 147x83 blocks.
	if g.Cols() != 147 || g.Rows() != 83 {
		t.Fatalf("grid %dx%d, want 147x83", g.Cols(), g.Rows())
	}
}

func TestS4CapacityMatchesPaperAnalysis(t *testing.T) {
	g := s4(t)
	// The paper reports 11520 code-area blocks for RainBar on this screen.
	// Our cell-exact accounting gives 11609 (+0.8%): the paper's round
	// "2.5 more columns, 4 more rows than COBRA" arithmetic slightly
	// underestimates its own layout. What must hold is the ordering
	// against COBRA's 10857 and RDCode's ~10508.
	got := g.CodeAreaBlocks()
	if got < 11400 || got > 11700 {
		t.Fatalf("code area = %d blocks, want ≈11520 (paper) / 11609 (exact)", got)
	}
	if got <= 10857 {
		t.Fatalf("code area %d not larger than COBRA's 10857", got)
	}
}

func TestNewGeometryValidation(t *testing.T) {
	if _, err := NewGeometry(100, 100, 1); err == nil {
		t.Error("block size 1 accepted")
	}
	if _, err := NewGeometry(100, 100, 13); err == nil {
		t.Error("7x7 grid accepted")
	}
	if _, err := NewGeometry(19*8, 10*8, 8); err != nil {
		t.Errorf("minimum grid rejected: %v", err)
	}
	for _, wh := range [][2]int{{MaxScreenPx + 1, 1080}, {1920, MaxScreenPx + 1}, {1 << 20, 1 << 20}} {
		if _, err := NewGeometry(wh[0], wh[1], 13); !errors.Is(err, ErrScreenTooLarge) {
			t.Errorf("%dx%d screen: error %v, want ErrScreenTooLarge", wh[0], wh[1], err)
		}
	}
	if _, err := NewGeometry(MaxScreenPx, MaxScreenPx, 13); err != nil {
		t.Errorf("largest screen rejected: %v", err)
	}
}

func TestKindAtStructure(t *testing.T) {
	g := s4(t)
	cases := []struct {
		r, c int
		want Kind
	}{
		{0, 0, KindTrackingBar},
		{0, 73, KindTrackingBar},
		{82, 146, KindTrackingBar},
		{40, 0, KindTrackingBar},
		{40, 146, KindTrackingBar},
		{1, 1, KindCTRing},
		{2, 2, KindCTCenter},
		{3, 3, KindCTRing},
		{1, 145, KindCTRing},
		{2, 144, KindCTCenter},
		{1, 4, KindHeader},
		{1, 142, KindHeader},
		{1, 73, KindHeader},
		{2, 73, KindLocator},  // first middle locator
		{4, 2, KindLocator},   // left column
		{4, 144, KindLocator}, // right column
		{80, 73, KindLocator}, // deep middle column
		{3, 73, KindData},     // separator between locators carries data
		{5, 2, KindData},      // separator in left column
		{2, 50, KindData},     // plain code area
		{40, 40, KindData},
		{-1, 0, 0},
		{0, 200, 0},
	}
	for _, c := range cases {
		if got := g.KindAt(c.r, c.c); got != c.want {
			t.Errorf("KindAt(%d, %d) = %v, want %v", c.r, c.c, got, c.want)
		}
	}
}

func TestEveryCellClassifiedExactlyOnce(t *testing.T) {
	g := s4(t)
	counts := map[Kind]int{}
	for r := 0; r < g.Rows(); r++ {
		for c := 0; c < g.Cols(); c++ {
			k := g.KindAt(r, c)
			if k == 0 {
				t.Fatalf("cell (%d,%d) unclassified", r, c)
			}
			counts[k]++
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != g.Rows()*g.Cols() {
		t.Fatalf("classified %d cells, want %d", total, g.Rows()*g.Cols())
	}
	if counts[KindCTCenter] != 2 {
		t.Errorf("%d CT centers, want 2", counts[KindCTCenter])
	}
	if counts[KindCTRing] != 16 {
		t.Errorf("%d CT ring cells, want 16", counts[KindCTRing])
	}
	wantBar := 2*g.Cols() + 2*(g.Rows()-2)
	if counts[KindTrackingBar] != wantBar {
		t.Errorf("%d tracking-bar cells, want %d", counts[KindTrackingBar], wantBar)
	}
	if counts[KindData] != len(g.DataCells()) {
		t.Errorf("KindData count %d != DataCells %d", counts[KindData], len(g.DataCells()))
	}
	if counts[KindHeader] != len(g.HeaderCells()) {
		t.Errorf("KindHeader count %d != HeaderCells %d", counts[KindHeader], len(g.HeaderCells()))
	}
}

func TestLocatorColumnsAlignWithCTCenters(t *testing.T) {
	g := s4(t)
	l, m, r := g.LocatorCols()
	if l != g.CTLeftCenter().Col {
		t.Errorf("left locator col %d != left CT center col %d", l, g.CTLeftCenter().Col)
	}
	if r != g.CTRightCenter().Col {
		t.Errorf("right locator col %d != right CT center col %d", r, g.CTRightCenter().Col)
	}
	if mid := (l + r) / 2; m != mid {
		t.Errorf("middle locator col %d not at midpoint %d", m, mid)
	}
}

func TestLocatorRowsSpacing(t *testing.T) {
	g := s4(t)
	rows := g.LocatorRows()
	if rows[0] != g.CTLeftCenter().Row {
		t.Errorf("first locator row %d != CT center row %d", rows[0], g.CTLeftCenter().Row)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i]-rows[i-1] != 2 {
			t.Fatalf("locator rows %d, %d not separated by one block", rows[i-1], rows[i])
		}
	}
	if last := rows[len(rows)-1]; last > g.Rows()-2 {
		t.Errorf("last locator row %d inside tracking bar", last)
	}
}

func TestDataCellsRowMajorAndUnique(t *testing.T) {
	g := s4(t)
	cells := g.DataCells()
	seen := make(map[Cell]bool, len(cells))
	for i, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate data cell %v", c)
		}
		seen[c] = true
		if g.KindAt(c.Row, c.Col) != KindData {
			t.Fatalf("data cell %v has kind %v", c, g.KindAt(c.Row, c.Col))
		}
		if i > 0 {
			prev := cells[i-1]
			if c.Row < prev.Row || (c.Row == prev.Row && c.Col <= prev.Col) {
				t.Fatalf("data cells not row-major at %d: %v after %v", i, c, prev)
			}
		}
	}
}

func TestCapacityAccessors(t *testing.T) {
	g := s4(t)
	if got, want := g.DataCapacityBits(), len(g.DataCells())*2; got != want {
		t.Errorf("DataCapacityBits = %d, want %d", got, want)
	}
	if got, want := g.DataCapacityBytes(), g.DataCapacityBits()/8; got != want {
		t.Errorf("DataCapacityBytes = %d, want %d", got, want)
	}
	if got, want := g.HeaderCapacityBits(), len(g.HeaderCells())*2; got != want {
		t.Errorf("HeaderCapacityBits = %d, want %d", got, want)
	}
	// The S4 header strip must hold the 72-bit header comfortably.
	if g.HeaderCapacityBits() < 72 {
		t.Errorf("header strip only %d bits", g.HeaderCapacityBits())
	}
}

func TestBlockCenterPx(t *testing.T) {
	g := s4(t)
	x, y := g.BlockCenterPx(0, 0)
	if x != 6.5 || y != 6.5 {
		t.Errorf("center of (0,0) = (%v, %v), want (6.5, 6.5)", x, y)
	}
	x, y = g.BlockCenterPx(2, 3)
	if x != 3*13+6.5 || y != 2*13+6.5 {
		t.Errorf("center of (2,3) = (%v, %v)", x, y)
	}
}

func TestTrackingBarColorCycle(t *testing.T) {
	want := []colorspace.Color{colorspace.White, colorspace.Red, colorspace.Green, colorspace.Blue}
	for seq := uint16(0); seq < 8; seq++ {
		if got := TrackingBarColor(seq); got != want[seq%4] {
			t.Errorf("TrackingBarColor(%d) = %v, want %v", seq, got, want[seq%4])
		}
	}
}

func TestBarDiff(t *testing.T) {
	cases := []struct {
		observed, own colorspace.Color
		want          int
	}{
		{colorspace.White, colorspace.White, 0},
		{colorspace.Red, colorspace.White, 1},
		{colorspace.White, colorspace.Blue, 1}, // wrap: 11 -> 00 is difference 1
		{colorspace.Blue, colorspace.White, 3},
		{colorspace.Green, colorspace.White, 2},
	}
	for _, c := range cases {
		if got := BarDiff(c.observed, c.own); got != c.want {
			t.Errorf("BarDiff(%v, %v) = %d, want %d", c.observed, c.own, got, c.want)
		}
	}
}

func TestSmallGeometryStillWellFormed(t *testing.T) {
	// The smallest permitted grid must still classify coherently.
	g, err := NewGeometry(19*6, 10*6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.DataCells()) == 0 {
		t.Fatal("no data cells in minimal grid")
	}
	l, m, r := g.LocatorCols()
	if !(l < m && m < r) {
		t.Fatalf("locator columns not ordered: %d, %d, %d", l, m, r)
	}
	if g.HeaderCapacityBits() < 72 {
		t.Skipf("minimal grid header strip %d bits; header needs a wider screen", g.HeaderCapacityBits())
	}
}

func TestS4LayoutGoldenHash(t *testing.T) {
	// The full S4 cell classification is frozen: any layout change breaks
	// wire compatibility between sender and receiver, so it must be a
	// deliberate, reviewed act (update the constant when it is).
	g := s4(t)
	h := sha256.New()
	for r := 0; r < g.Rows(); r++ {
		row := make([]byte, g.Cols())
		for c := 0; c < g.Cols(); c++ {
			row[c] = byte(g.KindAt(r, c))
		}
		h.Write(row)
	}
	got := hex.EncodeToString(h.Sum(nil))
	const want = "de258731167907f2f61c1efa9ff5b5913b7b4cba611d215f1f849697811c25b6"
	if got != want {
		t.Fatalf("S4 layout hash changed:\n got %s\nwant %s", got, want)
	}
}
