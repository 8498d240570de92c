package gf256

import (
	"testing"
	"testing/quick"
)

func TestMulKnownValues(t *testing.T) {
	// Worked example from the QR-code Reed-Solomon literature (0x11d field).
	cases := []struct{ a, b, want byte }{
		{0, 5, 0},
		{5, 0, 0},
		{1, 0x8e, 0x8e},
		{2, 0x80, 0x1d}, // doubling past bit 8 reduces by the polynomial
		{0x53, 0xCA, 0x8f},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulMatchesRussianPeasant(t *testing.T) {
	// Verify table-driven multiply against a direct carry-less multiply with
	// modular reduction for every pair (exhaustive: 65536 cases).
	slow := func(a, b byte) byte {
		var r int
		x, y := int(a), int(b)
		for y > 0 {
			if y&1 != 0 {
				r ^= x
			}
			y >>= 1
			x <<= 1
			if x&0x100 != 0 {
				x ^= Poly
			}
		}
		return byte(r)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	commutative := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("multiplication not commutative: %v", err)
	}
	associative := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(associative, nil); err != nil {
		t.Errorf("multiplication not associative: %v", err)
	}
	distributive := func(a, b, c byte) bool {
		return Mul(a, b^c) == Mul(a, b)^Mul(a, c) // addition is XOR
	}
	if err := quick.Check(distributive, nil); err != nil {
		t.Errorf("multiplication not distributive over addition: %v", err)
	}
}

func TestInverse(t *testing.T) {
	for x := 1; x < 256; x++ {
		inv := Inv(byte(x))
		if got := Mul(byte(x), inv); got != 1 {
			t.Fatalf("Mul(%#x, Inv(%#x)) = %#x, want 1", x, x, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestDiv(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if got := Mul(q, byte(b)); got != byte(a) {
				t.Fatalf("Div(%#x, %#x)*%#x = %#x, want %#x", a, b, b, got, a)
			}
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for x := 1; x < 256; x++ {
		if got := Exp(int(logTable[x])); got != byte(x) {
			t.Fatalf("Exp(log(%#x)) = %#x", x, got)
		}
	}
}

func TestExpNegative(t *testing.T) {
	if got, want := Exp(-1), Exp(254); got != want {
		t.Errorf("Exp(-1) = %#x, want %#x", got, want)
	}
	if got, want := Exp(-255), Exp(0); got != want {
		t.Errorf("Exp(-255) = %#x, want %#x", got, want)
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// alpha must generate all 255 nonzero elements before cycling.
	seen := make(map[byte]bool)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator cycle shorter than 255 (repeat at step %d)", i)
		}
		seen[x] = true
		x = Mul(x, Generator)
	}
	if x != 1 {
		t.Fatalf("alpha^255 = %#x, want 1", x)
	}
}
