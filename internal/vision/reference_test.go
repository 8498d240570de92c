package vision

import (
	"rainbar/internal/colorspace"
	"rainbar/internal/raster"
)

// This file keeps the pre-run-labeling detector as the executable
// specification of BlackBlobs: a five-color classification map of the
// stride-sampled pixels, then a flood fill over it with a visited plane and
// an explicit stack. BlackBlobs must return exactly its blob list, in its
// order, for every image, stride and threshold.

// refClassifyMap builds the downsampled classification map of img.
func refClassifyMap(img *raster.Image, cl colorspace.Classifier, stride int) (classMap []colorspace.Color, mw, mh int) {
	mw, mh = img.W/stride, img.H/stride
	classMap = make([]colorspace.Color, mw*mh)
	for y := 0; y < mh; y++ {
		src := img.Pix[y*stride*img.W:]
		out := classMap[y*mw : (y+1)*mw]
		for x := 0; x < mw; x++ {
			out[x] = cl.ClassifyRGB(src[x*stride])
		}
	}
	return classMap, mw, mh
}

// refBlackBlobs flood-fills the 8-connected components of black cells of a
// classified map of mw x mh cells, starting a component at each unvisited
// black cell in raster order, and drops components smaller than 2 cells.
func refBlackBlobs(classMap []colorspace.Color, mw, mh int) []Blob {
	visited := make([]bool, mw*mh)
	var out []Blob
	var stack []int
	for start := range classMap {
		if classMap[start] != colorspace.Black || visited[start] {
			continue
		}
		blob := Blob{MinX: mw, MinY: mh}
		stack = append(stack[:0], start)
		visited[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%mw, i/mw
			blob.Size++
			blob.sumX += x
			blob.sumY += y
			blob.MinX = min(blob.MinX, x)
			blob.MaxX = max(blob.MaxX, x)
			blob.MinY = min(blob.MinY, y)
			blob.MaxY = max(blob.MaxY, y)
			for _, d := range [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= mw || ny < 0 || ny >= mh {
					continue
				}
				j := ny*mw + nx
				if !visited[j] && classMap[j] == colorspace.Black {
					visited[j] = true
					stack = append(stack, j)
				}
			}
		}
		if blob.Size >= 2 {
			out = append(out, blob)
		}
	}
	return out
}

// refDetect is the reference detector: classification map, then flood fill.
func refDetect(img *raster.Image, cl colorspace.Classifier, stride int) (blobs []Blob, mw, mh int) {
	classMap, mw, mh := refClassifyMap(img, cl, stride)
	return refBlackBlobs(classMap, mw, mh), mw, mh
}
