// Package id implements the 160-bit circular identifier space shared by
// Chord and HIERAS. Node and key identifiers are SHA-1 digests interpreted
// as big-endian unsigned integers modulo 2^160. The package provides the
// modular interval tests and power-of-two arithmetic that DHT routing
// requires.
package id

import (
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
)

const (
	// Bits is the width of the identifier space.
	Bits = 160
	// Size is the identifier length in bytes.
	Size = Bits / 8
)

// ID is a 160-bit identifier stored big-endian: ID[0] holds the most
// significant byte. The zero value is the identifier 0.
type ID [Size]byte

// HashBytes returns the SHA-1 identifier of b.
func HashBytes(b []byte) ID {
	return ID(sha1.Sum(b))
}

// HashString returns the SHA-1 identifier of s.
func HashString(s string) ID {
	return HashBytes([]byte(s))
}

// HashTagged returns HashString(tag + s), hashed from a stack buffer: the
// concatenation and its []byte copy would be two heap objects per call.
// Inputs beyond the buffer (tag + s > 96 B) cost the one allocation
// append makes.
func HashTagged(tag, s string) ID {
	var stack [96]byte
	return HashBytes(append(append(stack[:0], tag...), s...))
}

// FromUint64 returns the identifier whose low 64 bits are v and whose
// remaining bits are zero. It is intended for tests and examples that want
// readable identifiers.
func FromUint64(v uint64) ID {
	var x ID
	for i := 0; i < 8; i++ {
		x[Size-1-i] = byte(v >> (8 * i))
	}
	return x
}

// ParseHex parses a 40-character hexadecimal identifier.
func ParseHex(s string) (ID, error) {
	var x ID
	if len(s) != 2*Size {
		return x, fmt.Errorf("id: hex identifier must be %d chars, got %d", 2*Size, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return x, fmt.Errorf("id: %v", err)
	}
	copy(x[:], b)
	return x, nil
}

// Rand returns a uniformly random identifier drawn from rng.
func Rand(rng *rand.Rand) ID {
	var x ID
	for i := 0; i < Size; i++ {
		if i%8 == 0 {
			v := rng.Uint64()
			for j := 0; j < 8 && i+j < Size; j++ {
				x[i+j] = byte(v >> (8 * (7 - j)))
			}
		}
	}
	return x
}

// String returns the full 40-character hexadecimal form.
func (x ID) String() string { return hex.EncodeToString(x[:]) }

// Short returns the first 8 hexadecimal characters, for human-readable
// tables and logs.
func (x ID) Short() string { return hex.EncodeToString(x[:4]) }

// MarshalText implements encoding.TextMarshaler.
func (x ID) MarshalText() ([]byte, error) { return []byte(x.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (x *ID) UnmarshalText(b []byte) error {
	v, err := ParseHex(string(b))
	if err != nil {
		return err
	}
	*x = v
	return nil
}

// Cmp compares x and y as unsigned integers: -1 if x < y, 0 if equal,
// +1 if x > y.
func (x ID) Cmp(y ID) int {
	for i := 0; i < Size; i++ {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether x < y as unsigned integers (not ring order).
func (x ID) Less(y ID) bool { return x.Cmp(y) < 0 }

// Equal reports whether x == y.
func (x ID) Equal(y ID) bool { return x == y }

// IsZero reports whether x is the zero identifier.
func (x ID) IsZero() bool { return x == ID{} }

// BitLen returns the length of x in bits: one more than the index of its
// top set bit, and 0 for the zero identifier (math/big's BitLen).
func (x ID) BitLen() int {
	for i, b := range x {
		if b != 0 {
			return (Size-1-i)*8 + bits.Len8(b)
		}
	}
	return 0
}

// Add returns (x + y) mod 2^160.
func Add(x, y ID) ID {
	var z ID
	var carry uint16
	for i := Size - 1; i >= 0; i-- {
		s := uint16(x[i]) + uint16(y[i]) + carry
		z[i] = byte(s)
		carry = s >> 8
	}
	return z
}

// Sub returns (x - y) mod 2^160.
func Sub(x, y ID) ID {
	var z ID
	var borrow uint16
	for i := Size - 1; i >= 0; i-- {
		s := uint16(x[i]) - uint16(y[i]) - borrow
		z[i] = byte(s)
		borrow = (s >> 8) & 1
	}
	return z
}

// AddPow2 returns (x + 2^k) mod 2^160. It panics if k >= Bits.
// It computes the start of the k'th finger interval: finger[k].start for a
// node with identifier x (using 0-based finger indexes, so finger k covers
// [x+2^k, x+2^(k+1)) as in the Chord paper's 1-based finger i = k+1).
func AddPow2(x ID, k uint) ID {
	if k >= Bits {
		panic(fmt.Sprintf("id: AddPow2 exponent %d out of range", k))
	}
	var p ID
	byteIdx := Size - 1 - int(k/8)
	p[byteIdx] = 1 << (k % 8)
	return Add(x, p)
}

// Dist returns the clockwise distance from x to y on the ring:
// (y - x) mod 2^160.
func Dist(x, y ID) ID { return Sub(y, x) }

// Between reports whether v lies strictly inside the circular open interval
// (a, b). When a == b the interval covers the whole ring except a itself.
func Between(v, a, b ID) bool {
	switch a.Cmp(b) {
	case -1: // no wrap
		return a.Cmp(v) < 0 && v.Cmp(b) < 0
	case 1: // wraps past zero
		return a.Cmp(v) < 0 || v.Cmp(b) < 0
	default: // a == b: whole ring minus the endpoint
		return v.Cmp(a) != 0
	}
}

// InOpenClosed reports whether v lies in the circular interval (a, b].
// When a == b the interval covers the entire ring (the single-node case in
// Chord: the only node is the successor of every key).
func InOpenClosed(v, a, b ID) bool {
	switch a.Cmp(b) {
	case -1:
		return a.Cmp(v) < 0 && v.Cmp(b) <= 0
	case 1:
		return a.Cmp(v) < 0 || v.Cmp(b) <= 0
	default:
		return true
	}
}

// InClosedOpen reports whether v lies in the circular interval [a, b).
// When a == b the interval covers the entire ring.
func InClosedOpen(v, a, b ID) bool {
	switch a.Cmp(b) {
	case -1:
		return a.Cmp(v) <= 0 && v.Cmp(b) < 0
	case 1:
		return a.Cmp(v) <= 0 || v.Cmp(b) < 0
	default:
		return true
	}
}

// ToBig returns x as a non-negative big integer. Intended for tests that
// cross-check the modular arithmetic against math/big.
func (x ID) ToBig() *big.Int { return new(big.Int).SetBytes(x[:]) }

// FromBig returns v mod 2^160 as an ID. Negative values are reduced into
// the ring. Intended for tests.
func FromBig(v *big.Int) ID {
	mod := new(big.Int).Lsh(big.NewInt(1), Bits)
	r := new(big.Int).Mod(v, mod)
	var x ID
	r.FillBytes(x[:])
	return x
}
