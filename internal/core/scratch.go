package core

import (
	"sync"

	"rainbar/internal/colorspace"
	"rainbar/internal/vision"
)

// decodeScratch owns every per-capture intermediate of the grid-decode
// pipeline (T_v samples, blob labeling state, locator columns, the
// GridDecode and its cell tables), so a steady-state receiver decodes
// captures without allocating. All pipeline stages accept a nil scratch
// and then allocate fresh results — that is the public API path
// (DecodeGridLoose, FixImage, LocateCenters), whose return values must
// outlive the call. Scratch-backed results are owned by the scratch and
// valid only until the next decode using the same scratch.
type decodeScratch struct {
	// detect
	tvValues []float64
	blobs    vision.BlobScratch
	det      detection

	// locate
	lm locatorMap

	// extract
	strip []colorspace.Color
	gd    GridDecode
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
