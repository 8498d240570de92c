package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrim(t *testing.T) {
	if got := (Polynomial{0, 0, 1, 2}).Trim(); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("Trim = %v, want [1 2]", got)
	}
	if got := (Polynomial{0, 0}).Trim(); len(got) != 0 {
		t.Errorf("Trim of zero poly = %v, want empty", got)
	}
}

func TestMulPolyIdentityAndZero(t *testing.T) {
	p := Polynomial{3, 1, 4, 1, 5}
	if got := MulPoly(p, Polynomial{1}); !bytes.Equal(got, p) {
		t.Errorf("p*1 = %v, want %v", got, p)
	}
	if got := MulPoly(p, Polynomial{}); len(got) != 0 {
		t.Errorf("p*0 = %v, want empty", got)
	}
}

func TestMulPolyKnown(t *testing.T) {
	// (x + 1)(x + 1) = x^2 + 1 in characteristic 2 (cross terms cancel).
	got := MulPoly(Polynomial{1, 1}, Polynomial{1, 1})
	want := Polynomial{1, 0, 1}
	if !bytes.Equal(got, want) {
		t.Errorf("(x+1)^2 = %v, want %v", got, want)
	}
}

func TestEval(t *testing.T) {
	// p(x) = 2x^2 + 3x + 5 at x=1 is 2^3^5 = 4.
	p := Polynomial{2, 3, 5}
	if got := p.Eval(1); got != 2^3^5 {
		t.Errorf("Eval(1) = %#x, want %#x", got, 2^3^5)
	}
	if got := p.Eval(0); got != 5 {
		t.Errorf("Eval(0) = %#x, want 5", got)
	}
}

func TestEvalRootOfMonic(t *testing.T) {
	for r := 0; r < 256; r++ {
		p := Polynomial{1, byte(r)} // x - r, which is x + r in characteristic 2
		if got := p.Eval(byte(r)); got != 0 {
			t.Fatalf("(x - %#x) evaluated at %#x = %#x, want 0", r, r, got)
		}
	}
}

// addPoly returns a + b: coefficient-wise XOR, aligned at the constant
// term.
func addPoly(a, b Polynomial) Polynomial {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append(Polynomial(nil), a...)
	off := len(a) - len(b)
	for i, c := range b {
		out[off+i] ^= c
	}
	return out
}

func TestDivModRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a := make(Polynomial, 1+rng.Intn(40))
		b := make(Polynomial, 1+rng.Intn(10))
		rng.Read(a)
		rng.Read(b)
		if len(b.Trim()) == 0 {
			b[0] = 1
		}
		quo, rem := DivMod(a, b)
		recon := addPoly(MulPoly(quo, b.Trim()), rem)
		if !bytes.Equal(recon.Trim(), a.Trim()) {
			t.Fatalf("a != q*b + r for a=%v b=%v (q=%v r=%v recon=%v)", a, b, quo, rem, recon)
		}
		if len(rem.Trim()) >= len(b.Trim()) {
			t.Fatalf("remainder %v not of lower degree than divisor %v", rem, b)
		}
	}
}

func TestDivModByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DivMod by zero polynomial did not panic")
		}
	}()
	DivMod(Polynomial{1, 2}, Polynomial{0})
}

func TestMulPolyCommutativeProperty(t *testing.T) {
	prop := func(a, b []byte) bool {
		if len(a) > 16 {
			a = a[:16]
		}
		if len(b) > 16 {
			b = b[:16]
		}
		x := MulPoly(Polynomial(a), Polynomial(b)).Trim()
		y := MulPoly(Polynomial(b), Polynomial(a)).Trim()
		return bytes.Equal(x, y)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("polynomial multiplication not commutative: %v", err)
	}
}

func TestEvalHomomorphismProperty(t *testing.T) {
	// (p*q)(x) == p(x)*q(x) for all x.
	prop := func(a, b []byte, x byte) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		p, q := Polynomial(a), Polynomial(b)
		return MulPoly(p, q).Eval(x) == Mul(p.Eval(x), q.Eval(x))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("evaluation not multiplicative: %v", err)
	}
}
