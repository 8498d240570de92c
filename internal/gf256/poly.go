package gf256

// Polynomial is a polynomial over GF(2^8) with coefficients stored in
// descending-degree order: p[0] is the coefficient of the highest-degree term.
// This matches the conventional Reed-Solomon literature layout where the
// message is the high-order part of the codeword polynomial.
type Polynomial []byte

// Trim removes leading zero coefficients so the slice length is the degree
// plus one.
// The zero polynomial trims to an empty slice.
func (p Polynomial) Trim() Polynomial {
	for i := range p {
		if p[i] != 0 {
			return p[i:]
		}
	}
	return Polynomial{}
}

// MulPoly returns a * b.
func MulPoly(a, b Polynomial) Polynomial {
	if len(a) == 0 || len(b) == 0 {
		return Polynomial{}
	}
	out := make(Polynomial, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			if cb == 0 {
				continue
			}
			out[i+j] ^= Mul(ca, cb)
		}
	}
	return out
}

// Eval evaluates p at x using Horner's rule.
func (p Polynomial) Eval(x byte) byte {
	var y byte
	for _, c := range p {
		y = Mul(y, x) ^ c
	}
	return y
}

// DivMod divides a by b, returning quotient and remainder. It panics if b is
// the zero polynomial.
func DivMod(a, b Polynomial) (quo, rem Polynomial) {
	b = b.Trim()
	if len(b) == 0 {
		panic("gf256: polynomial division by zero")
	}
	rem = make(Polynomial, len(a))
	copy(rem, a)
	if len(a) < len(b) {
		return Polynomial{}, rem
	}
	quo = make(Polynomial, len(a)-len(b)+1)
	lead := b[0]
	for i := 0; i <= len(rem)-len(b); i++ {
		coef := rem[i]
		if coef == 0 {
			continue
		}
		q := Div(coef, lead)
		quo[i] = q
		for j, c := range b {
			rem[i+j] ^= Mul(q, c)
		}
	}
	return quo, rem[len(rem)-len(b)+1:]
}
