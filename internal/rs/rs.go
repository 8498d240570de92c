// Package rs implements Reed-Solomon error correction over GF(2^8).
//
// RainBar (§III-B of the paper) protects every frame payload with an
// RS(n, k) code: n total bytes per message, k data bytes, correcting up to
// (n-k)/2 byte errors and detecting up to n-k. This package provides a
// systematic encoder and a full decoder (syndromes, Berlekamp-Massey,
// Chien search, Forney algorithm) with optional erasure support, built on
// internal/gf256. Only the standard library is used.
package rs

import (
	"errors"
	"fmt"

	"rainbar/internal/gf256"
)

// Codec is a Reed-Solomon codec with a fixed number of parity bytes.
// A Codec is immutable after creation and safe for concurrent use.
type Codec struct {
	nparity int
	gen     gf256.Polynomial // generator polynomial, degree == nparity
}

// Common error conditions reported by Decode.
var (
	// ErrTooManyErrors indicates the corruption exceeded the correction
	// capability of the code.
	ErrTooManyErrors = errors.New("rs: too many errors to correct")
	// ErrShortMessage indicates a message shorter than the parity length.
	ErrShortMessage = errors.New("rs: message shorter than parity length")
	// ErrLongMessage indicates a message longer than 255 bytes, the block
	// length limit of GF(2^8) Reed-Solomon.
	ErrLongMessage = errors.New("rs: message longer than 255 bytes")
)

// New creates a codec with the given number of parity bytes (n - k).
// nparity must be in [1, 254].
func New(nparity int) (*Codec, error) {
	if nparity < 1 || nparity > 254 {
		return nil, fmt.Errorf("rs: parity count %d out of range [1, 254]", nparity)
	}
	gen := gf256.Polynomial{1}
	for i := 0; i < nparity; i++ {
		gen = gf256.MulPoly(gen, gf256.Polynomial{1, gf256.Exp(i)})
	}
	return &Codec{nparity: nparity, gen: gen}, nil
}

// Encode appends parity bytes to data, returning a new slice of
// len(data)+nparity bytes. The encoding is systematic: the original data
// occupies the prefix. Encode returns an error if the resulting message
// would exceed 255 bytes.
func (c *Codec) Encode(data []byte) ([]byte, error) {
	if len(data)+c.nparity > 255 {
		return nil, ErrLongMessage
	}
	// Multiply the message polynomial by x^nparity and take the remainder
	// modulo the generator; the remainder is the parity.
	padded := make(gf256.Polynomial, len(data)+c.nparity)
	copy(padded, data)
	_, rem := gf256.DivMod(padded, c.gen)
	out := make([]byte, len(data)+c.nparity)
	copy(out, data)
	// rem may be shorter than nparity if leading coefficients are zero.
	copy(out[len(out)-len(rem):], rem)
	return out, nil
}

// Decode corrects msg in place (on a copy) and returns the data portion
// (message minus parity). erasures, if non-nil, lists byte positions known
// to be unreliable; each erasure consumes half the budget of an unknown
// error, so e erasures and t errors are correctable when 2t + e <= parity.
// Decode returns ErrTooManyErrors when correction fails or produces an
// inconsistent codeword. It is DecodeCountedScratch on a fresh Scratch.
func (c *Codec) Decode(msg []byte, erasures []int) ([]byte, error) {
	data, _, err := c.DecodeCountedScratch(msg, erasures, new(Scratch))
	return data, err
}

// Scratch holds the reusable buffers of the decode fast path (the working
// copy of the codeword and the syndrome vector), so a receiver decoding
// many clean messages does not allocate per message. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	work []byte
	synd []byte
}

// DecodeCountedScratch is Decode drawing its fast-path buffers from sc and
// reporting how many byte positions it corrected (erasure fills included)
// — the per-message RS load the paper's evaluation tracks; a clean
// codeword reports zero. The returned data slice aliases the scratch's
// working buffer: it is valid only until the next call using the same
// scratch, and callers that keep it must copy.
func (c *Codec) DecodeCountedScratch(msg []byte, erasures []int, sc *Scratch) (data []byte, corrected int, err error) {
	if len(msg) < c.nparity {
		return nil, 0, ErrShortMessage
	}
	if len(msg) > 255 {
		return nil, 0, ErrLongMessage
	}
	for _, e := range erasures {
		if e < 0 || e >= len(msg) {
			return nil, 0, fmt.Errorf("rs: erasure position %d out of range [0, %d)", e, len(msg))
		}
	}
	if len(erasures) > c.nparity {
		return nil, 0, ErrTooManyErrors
	}

	sc.work = growBytes(sc.work, len(msg))
	sc.synd = growBytes(sc.synd, c.nparity)
	work, synd := sc.work, sc.synd
	copy(work, msg)

	c.syndromesInto(synd, work)
	if allZero(synd) {
		return work[:len(work)-c.nparity], 0, nil
	}

	// Positions are conventionally expressed from the end of the message:
	// position j corresponds to the coefficient of x^j, i.e. byte
	// msg[len(msg)-1-j].
	erasePos := make([]int, len(erasures))
	for i, e := range erasures {
		erasePos[i] = len(msg) - 1 - e
	}

	errLoc, err := c.errorLocator(synd, erasePos)
	if err != nil {
		return nil, 0, err
	}
	positions, err := c.chienSearch(errLoc, len(msg))
	if err != nil {
		return nil, 0, err
	}
	if err := c.forneyCorrect(work, synd, errLoc, positions); err != nil {
		return nil, 0, err
	}
	// Verify: recompute syndromes after correction. synd itself is free to
	// reuse — the correction path is done with it.
	c.syndromesInto(synd, work)
	if !allZero(synd) {
		return nil, 0, ErrTooManyErrors
	}
	return work[:len(work)-c.nparity], len(positions), nil
}

// syndromesInto evaluates the received polynomial at
// alpha^0..alpha^(nparity-1) into a caller-provided vector of length
// nparity.
func (c *Codec) syndromesInto(synd, msg []byte) {
	for i := range synd {
		synd[i] = gf256.Polynomial(msg).Eval(gf256.Exp(i))
	}
}

// growBytes returns b resized to n bytes, reusing its storage when the
// capacity allows. Contents are unspecified.
func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// errorLocator runs Berlekamp-Massey on the Forney syndromes and multiplies
// in the erasure locator. All locator polynomials use the same
// descending-power layout as gf256.Polynomial (constant term last).
func (c *Codec) errorLocator(synd []byte, erasePos []int) (gf256.Polynomial, error) {
	// Erasure locator: product over erasures of (1 - alpha^pos * x),
	// which in descending-power order is {alpha^pos, 1}.
	eraseLoc := []byte{1}
	for _, p := range erasePos {
		eraseLoc = mulDesc(eraseLoc, []byte{gf256.Exp(p), 1})
	}

	// Forney syndromes: fold erasure information into the syndromes so
	// Berlekamp-Massey only has to find the unknown error positions.
	fsynd := make([]byte, len(synd))
	copy(fsynd, synd)
	for _, p := range erasePos {
		x := gf256.Exp(p)
		for i := 0; i < len(fsynd)-1; i++ {
			fsynd[i] = gf256.Mul(fsynd[i], x) ^ fsynd[i+1]
		}
		fsynd = fsynd[:len(fsynd)-1]
	}

	errLoc := []byte{1}
	oldLoc := []byte{1}
	for i := 0; i < len(fsynd); i++ {
		delta := fsynd[i]
		for j := 1; j < len(errLoc); j++ {
			delta ^= gf256.Mul(errLoc[len(errLoc)-1-j], fsynd[i-j])
		}
		oldLoc = append(oldLoc, 0)
		if delta != 0 {
			if len(oldLoc) > len(errLoc) {
				newLoc := scaleDesc(oldLoc, delta)
				oldLoc = scaleDesc(errLoc, gf256.Inv(delta))
				errLoc = newLoc
			}
			scaled := scaleDesc(oldLoc, delta)
			errLoc = addDesc(errLoc, scaled)
		}
	}

	// Combine with the erasure locator.
	errLoc = mulDesc(trimDesc(errLoc), eraseLoc)
	nErrs := len(trimDesc(errLoc)) - 1
	if 2*(nErrs-len(erasePos))+len(erasePos) > c.nparity {
		return nil, ErrTooManyErrors
	}
	return gf256.Polynomial(trimDesc(errLoc)), nil
}

// chienSearch finds the error positions as roots of the locator polynomial
// (descending-power order). Position j is in error iff alpha^-j is a root;
// j counts from the message end, so byte msg[len(msg)-1-j] is corrupt.
func (c *Codec) chienSearch(loc gf256.Polynomial, msgLen int) ([]int, error) {
	nErrs := len(loc) - 1
	if nErrs == 0 {
		return nil, ErrTooManyErrors
	}
	var positions []int
	for j := 0; j < msgLen; j++ {
		// x = alpha^-j is a root iff position j is in error.
		if loc.Eval(gf256.Exp(-j)) == 0 {
			positions = append(positions, j)
		}
	}
	if len(positions) != nErrs {
		// Locator degree disagrees with root count: uncorrectable.
		return nil, ErrTooManyErrors
	}
	return positions, nil
}

// forneyCorrect computes error magnitudes with the Forney algorithm and
// repairs msg in place. positions are powers-of-x positions (from message
// end), as produced by chienSearch.
func (c *Codec) forneyCorrect(msg, synd []byte, loc gf256.Polynomial, positions []int) error {
	// Error evaluator: omega(x) = [synd(x) * loc(x)] mod x^nparity,
	// with synd in ascending order.
	syndAsc := make([]byte, len(synd))
	copy(syndAsc, synd) // synd[i] is S_i, coefficient of x^i: already ascending
	locAsc := make([]byte, len(loc))
	for i, v := range loc {
		locAsc[len(loc)-1-i] = v
	}
	omega := mulDescTrunc(syndAsc, locAsc, c.nparity)

	// Formal derivative of the locator (ascending): odd-power terms survive.
	locDeriv := make([]byte, 0, len(locAsc)/2)
	for i := 1; i < len(locAsc); i += 2 {
		locDeriv = append(locDeriv, locAsc[i])
	}

	for _, j := range positions {
		xInv := gf256.Exp(-j)
		// omega(x^-1)
		var num byte
		xp := byte(1)
		for _, w := range omega {
			num ^= gf256.Mul(w, xp)
			xp = gf256.Mul(xp, xInv)
		}
		// loc'(x^-1) evaluated over even powers (x^-2 steps).
		var den byte
		xp = byte(1)
		x2 := gf256.Mul(xInv, xInv)
		for _, d := range locDeriv {
			den ^= gf256.Mul(d, xp)
			xp = gf256.Mul(xp, x2)
		}
		if den == 0 {
			return ErrTooManyErrors
		}
		magnitude := gf256.Mul(gf256.Div(num, den), gf256.Exp(j))
		idx := len(msg) - 1 - j
		msg[idx] ^= magnitude
	}
	return nil
}

// --- byte-slice polynomial helpers ---
//
// These operate on descending-power slices (constant term last), matching
// gf256.Polynomial. mulDescTrunc is also used on ascending slices inside
// forneyCorrect: plain multiplication is layout-agnostic, and its truncation
// keeps low indices, which for ascending slices is exactly "mod x^n".

func mulDesc(a, b []byte) []byte {
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= gf256.Mul(ca, cb)
		}
	}
	return out
}

func mulDescTrunc(a, b []byte, n int) []byte {
	out := make([]byte, n)
	for i, ca := range a {
		if ca == 0 || i >= n {
			continue
		}
		for j, cb := range b {
			if i+j >= n {
				break
			}
			out[i+j] ^= gf256.Mul(ca, cb)
		}
	}
	return out
}

func scaleDesc(p []byte, c byte) []byte {
	out := make([]byte, len(p))
	for i, v := range p {
		out[i] = gf256.Mul(v, c)
	}
	return out
}

func addDesc(a, b []byte) []byte {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]byte, len(a))
	copy(out, a)
	for i, v := range b {
		out[len(out)-len(b)+i] ^= v
	}
	return out
}

func trimDesc(p []byte) []byte {
	for i := range p {
		if p[i] != 0 {
			return p[i:]
		}
	}
	return []byte{0}
}
