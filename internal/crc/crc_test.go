package crc

import (
	"testing"
	"testing/quick"
)

// bitwise reference implementations, used to validate the table-driven code.

func ref8(data []byte) uint8 {
	var c uint8
	for _, b := range data {
		c ^= b
		for i := 0; i < 8; i++ {
			if c&0x80 != 0 {
				c = c<<1 ^ Poly8
			} else {
				c <<= 1
			}
		}
	}
	return c
}

func ref16(data []byte) uint16 {
	c := uint16(Init16)
	for _, b := range data {
		c ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ Poly16
			} else {
				c <<= 1
			}
		}
	}
	return c
}

func TestSum8KnownVectors(t *testing.T) {
	// CRC-8/SMBUS check value: "123456789" -> 0xF4.
	if got := Sum8([]byte("123456789")); got != 0xF4 {
		t.Errorf("Sum8(check string) = %#x, want 0xF4", got)
	}
	if got := Sum8(nil); got != 0 {
		t.Errorf("Sum8(nil) = %#x, want 0", got)
	}
}

func TestSum16KnownVectors(t *testing.T) {
	// CRC-16/CCITT-FALSE check value: "123456789" -> 0x29B1.
	if got := Sum16([]byte("123456789")); got != 0x29B1 {
		t.Errorf("Sum16(check string) = %#x, want 0x29B1", got)
	}
	if got := Sum16(nil); got != Init16 {
		t.Errorf("Sum16(nil) = %#x, want %#x", got, Init16)
	}
}

func TestTableMatchesBitwise(t *testing.T) {
	p8 := func(data []byte) bool { return Sum8(data) == ref8(data) }
	if err := quick.Check(p8, nil); err != nil {
		t.Errorf("Sum8 disagrees with bitwise reference: %v", err)
	}
	p16 := func(data []byte) bool { return Sum16(data) == ref16(data) }
	if err := quick.Check(p16, nil); err != nil {
		t.Errorf("Sum16 disagrees with bitwise reference: %v", err)
	}
}

func TestSingleBitErrorsDetected(t *testing.T) {
	data := []byte("rainbar header field")
	s8 := Sum8(data)
	s16 := Sum16(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			corrupted := make([]byte, len(data))
			copy(corrupted, data)
			corrupted[i] ^= 1 << bit
			if Check8(corrupted, s8) {
				t.Fatalf("CRC-8 missed single-bit error at byte %d bit %d", i, bit)
			}
			if Sum16(corrupted) == s16 {
				t.Fatalf("CRC-16 missed single-bit error at byte %d bit %d", i, bit)
			}
		}
	}
}

func TestBurstErrorsDetected(t *testing.T) {
	// CRC-16 with a degree-16 polynomial detects all bursts up to 16 bits.
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s16 := Sum16(data)
	for start := 0; start < len(data)-2; start++ {
		corrupted := make([]byte, len(data))
		copy(corrupted, data)
		corrupted[start] ^= 0xFF
		corrupted[start+1] ^= 0xFF
		if Sum16(corrupted) == s16 {
			t.Fatalf("CRC-16 missed 16-bit burst at byte %d", start)
		}
	}
}

func TestCheckAcceptsCorrect(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if !Check8(data, Sum8(data)) {
		t.Error("Check8 rejected correct checksum")
	}
}

func BenchmarkSum16(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Sum16(data)
	}
}
