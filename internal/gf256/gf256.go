// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by the
// Reed-Solomon codes in QR codes and by the RDCode/RainBar family of
// color-barcode systems. Elements are bytes; addition is XOR and
// multiplication is carried out through exp/log tables built at package
// initialization.
package gf256

// Poly is the primitive polynomial generating the field, expressed with the
// x^8 term included (0x11d = x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11d

// Generator is the primitive element alpha used to build the exp/log tables.
const Generator = 0x02

var (
	expTable [512]byte // alpha^i for i in [0,510], doubled to avoid mod 255
	logTable [256]byte // log_alpha(x) for x in [1,255]
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Exp returns alpha^n for any integer n (negative exponents allowed).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Inv returns the multiplicative inverse of x. It panics if x is zero.
func Inv(x byte) byte {
	if x == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[x])]
}

// Div returns a / b. It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}
