package rs

import (
	"bytes"
	"testing"
)

// FuzzRSDecode throws arbitrary messages, erasure lists and parity widths
// at the decoder. Decode may reject, but must never panic; whatever it
// accepts must be a self-consistent codeword, and clean round trips must
// stay bit-exact.
func FuzzRSDecode(f *testing.F) {
	c16 := mustNew(16)
	clean, _ := c16.Encode([]byte("reed-solomon over the rainbar link"))
	f.Add(clean, []byte{}, byte(15))
	corrupt := bytes.Clone(clean)
	corrupt[0] ^= 0xFF
	corrupt[9] ^= 0x55
	f.Add(corrupt, []byte{0, 9}, byte(15))
	f.Add([]byte{}, []byte{}, byte(0))
	f.Add([]byte{1, 2, 3}, []byte{200}, byte(3))

	f.Fuzz(func(t *testing.T, msg []byte, eraseRaw []byte, nparityByte byte) {
		nparity := 1 + int(nparityByte)%254
		codec, err := New(nparity)
		if err != nil {
			t.Fatalf("New(%d): %v", nparity, err)
		}
		if len(eraseRaw) > 16 {
			eraseRaw = eraseRaw[:16]
		}
		erasures := make([]int, len(eraseRaw))
		for i, e := range eraseRaw {
			erasures[i] = int(e) // may be out of range; Decode must reject, not panic
		}

		out, err := codec.Decode(msg, erasures)
		if err == nil {
			// Whatever Decode accepted must re-encode to a codeword of the
			// same length — i.e. the corrected message really was one.
			re, err := codec.Encode(out)
			if err != nil {
				t.Fatalf("accepted data does not re-encode: %v", err)
			}
			if len(re) != len(msg) {
				t.Fatalf("re-encoded length %d, message length %d", len(re), len(msg))
			}
		}

		// Clean round trip: any payload that fits must survive.
		if len(msg) > 0 && len(msg)+nparity <= 255 {
			enc, err := codec.Encode(msg)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			dec, err := codec.Decode(enc, nil)
			if err != nil {
				t.Fatalf("clean Decode: %v", err)
			}
			if !bytes.Equal(dec, msg) {
				t.Fatalf("round trip corrupted data")
			}
		}
	})
}
