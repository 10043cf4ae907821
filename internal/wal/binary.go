package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// Compact binary codec helpers shared by the WAL payload codecs
// (store.Change mutations, eventlog.Event records). Encoders append to a
// caller-owned buffer; the Dec reader consumes a payload front to back and
// latches the first error so call sites stay unconditional.

// ErrShortPayload reports a payload that ended before its schema did.
var ErrShortPayload = errors.New("wal: short payload")

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendString appends a uvarint length prefix followed by the bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendVarint appends v zigzag-encoded (for timestamps that could in
// principle be negative).
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendFloat64 appends the IEEE 754 bits, little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends one byte (1/0).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBits appends an n-position bit vector as a uvarint length plus
// ⌈n/8⌉ bytes, position i at bit i%8 of byte i/8. The vector comes packed:
// position i is bit i%64 of words[i/64], and the bits past n are zero.
func AppendBits(b []byte, n int, words []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(n))
	end := len(b) + (n+7)/8
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b[:end]
}

// Dec consumes a payload produced with the Append helpers. The zero value
// over a payload slice is ready to use; after the first decoding error all
// further reads return zero values and Err reports the failure.
//
// Decoding is canonical: a value the Append helpers would have written
// differently (a padded varint, a bool byte above 1, set padding bits) is an
// error, so a payload that decodes re-encodes to the same bytes.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the first decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Rest returns the unconsumed remainder of the payload, so codecs can
// sanity-bound element counts before allocating.
func (d *Dec) Rest() []byte { return d.b }

// Fail latches ErrShortPayload from codec-level validation (e.g. an
// element count the remaining payload cannot possibly hold).
func (d *Dec) Fail() { d.fail() }

// Done reports whether the payload was consumed exactly and without error.
func (d *Dec) Done() bool { return d.err == nil && len(d.b) == 0 }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrShortPayload
	}
}

// minimalVarint reports whether binary.Uvarint/Varint's n-byte read of b
// succeeded on the shortest encoding of its value: a longer one ends in a
// zero continuation group, which no Append helper writes.
func minimalVarint(b []byte, n int) bool {
	return n == 1 || (n > 1 && b[n-1] != 0)
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if !minimalVarint(d.b, n) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint reads one zigzag-encoded signed value.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if !minimalVarint(d.b, n) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// String reads one length-prefixed string.
func (d *Dec) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// Float64 reads one little-endian IEEE 754 value.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Bool reads one byte as a bool.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 || d.b[0] > 1 {
		d.fail()
		return false
	}
	v := d.b[0] != 0
	d.b = d.b[1:]
	return v
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bits reads a packed bool slice written by AppendBits.
func (d *Dec) Bits() []bool {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	// Bound n by the bits the remaining payload can actually hold before
	// any allocation: a corrupt length must latch an error, not panic in
	// make (and (n+7)/8 would wrap for n near 2^64).
	if n > uint64(len(d.b))*8 {
		d.fail()
		return nil
	}
	bytes := (n + 7) / 8
	if n%8 != 0 && d.b[bytes-1]>>(n%8) != 0 {
		d.fail()
		return nil
	}
	out := make([]bool, n)
	for i, by := range d.b[:bytes] {
		for ; by != 0; by &= by - 1 {
			out[i*8+bits.TrailingZeros8(by)] = true
		}
	}
	d.b = d.b[bytes:]
	return out
}
