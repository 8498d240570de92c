package main

// The benchmark's own input generator. Payloads, sizes, fault seeds and
// the arrival schedule all come from here, never from internal/workload,
// so a change to the program's generators cannot change the benchmark's
// inputs under it.

// rng is a splitmix64 stream: tiny, fast and fully specified here, so the
// inputs of a seed never depend on the standard library's generators.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (stream) of one
// workload seed.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed) ^ 0x5DEECE66D*(stream+1)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// int63 returns a non-negative seed value that survives a round trip
// through float64 (faults.ParseSpec reads seeds that way).
func (r *rng) int63() int64 { return int64(r.next() & 0x7FFFFFFF) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stratified returns n values in [0, k) that hold every value equally
// often (up to one), in seeded order. Spreading sizes and kinds this way
// keeps every run's mix the same while the seed still chooses the order
// and the exact bytes, so runs of different seeds measure the same work.
func (r *rng) stratified(n, k int) []int {
	out := make([]int, n)
	for i, p := range r.perm(n) {
		out[i] = p % k
	}
	return out
}

// sizeForChunks returns a payload length, in [1, ...], whose transfer
// takes exactly chunks frames when each frame carries chunkSize file bytes
// after a manifest of manifestLen bytes (transport's wire format).
func (r *rng) sizeForChunks(chunks, chunkSize, minLen int) int {
	const manifestLen = 12
	lo := (chunks-1)*chunkSize - manifestLen + 1
	hi := chunks*chunkSize - manifestLen
	lo = max(lo, minLen)
	return lo + r.intn(hi-lo+1)
}

var vocabulary = []string{
	"the", "of", "and", "a", "to", "in", "is", "frame", "color", "screen",
	"camera", "barcode", "light", "shutter", "rolling", "decode", "block",
	"tracker", "locator", "channel", "phone", "robust", "visible", "link",
}

// textPayload returns n bytes of printable ASCII prose, which transport
// classifies as text.
func (r *rng) textPayload(n int) []byte {
	out := make([]byte, 0, n+16)
	words := 0
	for len(out) < n {
		w := vocabulary[r.intn(len(vocabulary))]
		out = append(out, w...)
		words++
		if words%11 == 0 {
			out = append(out, ". "...)
		} else {
			out = append(out, ' ')
		}
	}
	return out[:n]
}

// imagePayload returns n bytes that start with the PNG signature and
// continue with incompressible bytes, which transport classifies as an
// image. n must be at least 8.
func (r *rng) imagePayload(n int) []byte {
	out := r.randomPayload(n)
	copy(out, "\x89PNG\r\n\x1a\n")
	return out
}

// audioPayload returns n bytes with a RIFF/WAVE header and a seeded
// triangle wave, which transport classifies as audio. n must be at least
// 12.
func (r *rng) audioPayload(n int) []byte {
	out := make([]byte, n)
	copy(out, "RIFF")
	copy(out[8:], "WAVE")
	step := 1 + r.intn(7)
	v, dir := 128, step
	for i := 12; i < n; i++ {
		v += dir
		if v > 228 || v < 28 {
			dir = -dir
		}
		out[i] = byte(v)
	}
	return out
}

// randomPayload returns n incompressible bytes.
func (r *rng) randomPayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.next())
	}
	return out
}
