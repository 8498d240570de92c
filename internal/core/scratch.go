package core

import (
	"sync"

	"rainbar/internal/colorspace"
	"rainbar/internal/vision"
)

// decodeScratch owns every per-capture intermediate of the grid-decode
// pipeline (T_v samples, blob labeling state, locator columns, Sharpness's
// luma rows, the header strip and two GridDecode slots with their cell
// tables), so a steady-state receiver decodes captures without
// allocating. Results are owned by the scratch and valid only until the
// next decode using it. Receivers draw scratches from scratchPool; the
// one-shot public API (DecodeGridLoose, DecodeFrame, FixImage,
// LocateCenters) decodes on a fresh scratch that its results keep alive,
// and that scratch never enters the pool.
type decodeScratch struct {
	// detect
	tvValues []float64
	blobs    vision.BlobScratch
	det      detection

	// locate
	lm locatorMap

	// extract. gd[0] holds the reading a decode returns; the μ-sweeps
	// re-extract into gd[1], so the reading they compare against stays
	// intact, and the proactive sweep swaps the slots when it adopts one.
	luma  []float64
	strip []colorspace.Color
	gd    [2]GridDecode
}

// scratchPool recycles decode scratches across receivers and batch decode
// workers.
var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

func getScratch() *decodeScratch  { return scratchPool.Get().(*decodeScratch) }
func putScratch(s *decodeScratch) { scratchPool.Put(s) }

// grow returns s resized to n elements, reusing its storage when the
// capacity allows. Contents are unspecified; callers overwrite or clear.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
