package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"rainbar/internal/gf256"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, -1, 255, 1000} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) succeeded, want error", n)
		}
	}
	for _, n := range []int{1, 2, 16, 32, 254} {
		if _, err := New(n); err != nil {
			t.Errorf("New(%d) failed: %v", n, err)
		}
	}
}

// mustNew is New for the tests' constant parity counts.
func mustNew(nparity int) *Codec {
	c, err := New(nparity)
	if err != nil {
		panic(err)
	}
	return c
}

func TestEncodeSystematic(t *testing.T) {
	c := mustNew(8)
	data := []byte("hello, reed-solomon")
	msg, err := c.Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(msg) != len(data)+8 {
		t.Fatalf("encoded length %d, want %d", len(msg), len(data)+8)
	}
	if !bytes.Equal(msg[:len(data)], data) {
		t.Fatal("encoding is not systematic")
	}
}

func TestEncodeTooLong(t *testing.T) {
	c := mustNew(16)
	if _, err := c.Encode(make([]byte, 240)); !errors.Is(err, ErrLongMessage) {
		t.Fatalf("Encode(240 bytes) err = %v, want ErrLongMessage", err)
	}
	if _, err := c.Encode(make([]byte, 239)); err != nil {
		t.Fatalf("Encode(239 bytes) err = %v, want nil", err)
	}
}

func TestCodewordIsMultipleOfGenerator(t *testing.T) {
	// A valid codeword must evaluate to zero at every generator root
	// alpha^0..alpha^(nparity-1).
	c := mustNew(10)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		data := make([]byte, 1+rng.Intn(200))
		rng.Read(data)
		msg, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if v := gf256.Polynomial(msg).Eval(gf256.Exp(i)); v != 0 {
				t.Fatalf("codeword root alpha^%d evaluates to %#x", i, v)
			}
		}
	}
}

func TestDecodeClean(t *testing.T) {
	c := mustNew(8)
	data := []byte("clean message")
	msg, _ := c.Encode(data)
	got, err := c.Decode(msg, nil)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Decode = %q, want %q", got, data)
	}
}

func TestDecodeCorrectsErrors(t *testing.T) {
	c := mustNew(8) // corrects up to 4 errors
	data := []byte("the quick brown fox jumps over")
	for nErrs := 1; nErrs <= 4; nErrs++ {
		msg, _ := c.Encode(data)
		rng := rand.New(rand.NewSource(int64(nErrs)))
		positions := rng.Perm(len(msg))[:nErrs]
		for _, p := range positions {
			msg[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(msg, nil)
		if err != nil {
			t.Fatalf("%d errors: Decode failed: %v", nErrs, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d errors: Decode = %q, want %q", nErrs, got, data)
		}
	}
}

func TestDecodeDetectsExcessErrors(t *testing.T) {
	c := mustNew(8)
	data := []byte("overload this codeword with corruption")
	rng := rand.New(rand.NewSource(99))
	detected := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		msg, _ := c.Encode(data)
		// 8 errors is double the correction capability.
		for _, p := range rng.Perm(len(msg))[:8] {
			msg[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(msg, nil)
		if err != nil || !bytes.Equal(got, data) {
			detected++
		}
	}
	// Miscorrection (decoding to a *different* valid codeword) is possible but
	// rare; the decoder must flag the overwhelming majority.
	if detected < trials-2 {
		t.Fatalf("only %d/%d overloaded codewords flagged or mangled", detected, trials)
	}
}

func TestDecodeErasuresOnly(t *testing.T) {
	c := mustNew(8) // corrects up to 8 erasures
	data := []byte("erasures are half price")
	msg, _ := c.Encode(data)
	var erasures []int
	for i := 0; i < 8; i++ {
		pos := i * 3
		msg[pos] = 0xAA
		erasures = append(erasures, pos)
	}
	got, err := c.Decode(msg, erasures)
	if err != nil {
		t.Fatalf("Decode with 8 erasures: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Decode = %q, want %q", got, data)
	}
}

func TestDecodeMixedErrorsAndErasures(t *testing.T) {
	// 2 errors + 4 erasures: 2*2 + 4 = 8 = parity, exactly at capacity.
	c := mustNew(8)
	data := []byte("mixed corruption test payload")
	msg, _ := c.Encode(data)
	erasures := []int{0, 5, 10, 15}
	for _, p := range erasures {
		msg[p] ^= 0x55
	}
	msg[20] ^= 0x11
	msg[25] ^= 0x22
	got, err := c.Decode(msg, erasures)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Decode = %q, want %q", got, data)
	}
}

func TestDecodeErasureValidation(t *testing.T) {
	c := mustNew(4)
	msg, _ := c.Encode([]byte("abc"))
	if _, err := c.Decode(msg, []int{-1}); err == nil {
		t.Error("negative erasure position accepted")
	}
	if _, err := c.Decode(msg, []int{len(msg)}); err == nil {
		t.Error("out-of-range erasure position accepted")
	}
	if _, err := c.Decode(msg, []int{0, 1, 2, 3, 4}); !errors.Is(err, ErrTooManyErrors) {
		t.Errorf("5 erasures with 4 parity: err = %v, want ErrTooManyErrors", err)
	}
}

func TestDecodeShortMessage(t *testing.T) {
	c := mustNew(8)
	if _, err := c.Decode([]byte{1, 2, 3}, nil); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("err = %v, want ErrShortMessage", err)
	}
}

func TestDecodeDoesNotMutateInput(t *testing.T) {
	c := mustNew(8)
	msg, _ := c.Encode([]byte("immutable input"))
	msg[3] ^= 0xFF
	snapshot := make([]byte, len(msg))
	copy(snapshot, msg)
	if _, err := c.Decode(msg, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, snapshot) {
		t.Fatal("Decode mutated its input slice")
	}
}

func TestRoundTripProperty(t *testing.T) {
	c := mustNew(16) // corrects 8 errors
	prop := func(data []byte, seed int64) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 255-16 {
			data = data[:255-16]
		}
		msg, err := c.Encode(data)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		nErrs := rng.Intn(9) // 0..8
		for _, p := range rng.Perm(len(msg))[:nErrs] {
			msg[p] ^= byte(1 + rng.Intn(255))
		}
		got, err := c.Decode(msg, nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllSingleByteErrorsCorrected(t *testing.T) {
	// Exhaustive over position for a fixed payload: every single-byte error
	// in every position must be corrected by even the smallest codec.
	c := mustNew(2)
	data := []byte("exhaustive single error sweep payload......")
	for pos := 0; pos < len(data)+2; pos++ {
		msg, _ := c.Encode(data)
		msg[pos] ^= 0x5A
		got, err := c.Decode(msg, nil)
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("pos %d: wrong correction", pos)
		}
	}
}

func BenchmarkEncode223(b *testing.B) {
	c := mustNew(32)
	data := make([]byte, 223)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	c := mustNew(32)
	data := make([]byte, 223)
	rand.New(rand.NewSource(1)).Read(data)
	msg, _ := c.Encode(data)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeWorstCase(b *testing.B) {
	c := mustNew(32)
	data := make([]byte, 223)
	rng := rand.New(rand.NewSource(1))
	rng.Read(data)
	msg, _ := c.Encode(data)
	for _, p := range rng.Perm(len(msg))[:16] {
		msg[p] ^= 0xFF
	}
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
