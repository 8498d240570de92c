// Package crc implements the cyclic redundancy checks used by RainBar
// frames: an 8-bit CRC protecting each 16-bit header field (paper Fig. 5)
// and a 16-bit CRC protecting the frame payload. Both are table-driven and
// allocation-free.
//
// CRC-8 uses the ATM/ITU polynomial x^8 + x^2 + x + 1 (0x07).
// CRC-16 uses the CCITT polynomial x^16 + x^12 + x^5 + 1 (0x1021) with
// initial value 0xFFFF.
package crc

// Poly8 is the CRC-8 generator polynomial (CRC-8/SMBUS, 0x07).
const Poly8 = 0x07

// Poly16 is the CRC-16 generator polynomial (CCITT, 0x1021).
const Poly16 = 0x1021

// Init16 is the CRC-16 initial register value (CCITT-FALSE convention).
const Init16 = 0xFFFF

var (
	table8  [256]uint8
	table16 [256]uint16
)

func init() {
	for i := 0; i < 256; i++ {
		c8 := uint8(i)
		for b := 0; b < 8; b++ {
			if c8&0x80 != 0 {
				c8 = c8<<1 ^ Poly8
			} else {
				c8 <<= 1
			}
		}
		table8[i] = c8

		c16 := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if c16&0x8000 != 0 {
				c16 = c16<<1 ^ Poly16
			} else {
				c16 <<= 1
			}
		}
		table16[i] = c16
	}
}

// Sum8 returns the CRC-8 of data.
func Sum8(data []byte) uint8 {
	var c uint8
	for _, b := range data {
		c = table8[c^b]
	}
	return c
}

// Sum16 returns the CRC-16/CCITT-FALSE of data.
func Sum16(data []byte) uint16 {
	c := uint16(Init16)
	for _, b := range data {
		c = c<<8 ^ table16[uint8(c>>8)^b]
	}
	return c
}

// Check8 reports whether sum is the correct CRC-8 for data.
func Check8(data []byte, sum uint8) bool { return Sum8(data) == sum }
