// Package bitstr implements the binary-string addresses that name the
// vertices of an X-tree.
//
// In Monien's notation (SPAA '91, §2) the X-tree X(r) has one vertex for
// every binary string of length at most r.  A string z of length i is
// connected to its two extensions z0, z1 on level i+1 and, when
// binary(z) < 2^i − 1, to successor(z), the unique string of the same length
// with binary(successor(z)) = binary(z) + 1.  The empty string ε is the root
// and binary(ε) = 0.
//
// An Addr packs such a string into a (level, index) pair where index is the
// value of the string read as a big-endian binary number.  All arithmetic the
// embedding needs (parent, children, successor, predecessor, common prefixes)
// is O(1) on this representation, and addresses convert to and from a dense
// heap numbering (ID) so they can index slices.
package bitstr

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxLevel is the largest representable string length.  Index must fit in a
// uint64, and IDs for complete levels must fit in an int64, so 62 is safe on
// all platforms.
const MaxLevel = 62

// Addr is a binary string of length Level whose big-endian value is Index.
// The zero value is the empty string ε (the X-tree root).
type Addr struct {
	Level int    // length of the string, 0..MaxLevel
	Index uint64 // binary(string); only the low Level bits are meaningful
}

// Root returns the empty string ε.
func Root() Addr { return Addr{} }

// Valid reports whether the address denotes a real string: the level is in
// range and the index fits in Level bits.
func (a Addr) Valid() bool {
	if a.Level < 0 || a.Level > MaxLevel {
		return false
	}
	if a.Level < 64 && a.Index >= uint64(1)<<uint(a.Level) {
		return false
	}
	return true
}

// IsRoot reports whether a is the empty string.
func (a Addr) IsRoot() bool { return a.Level == 0 }

// Bit returns the i-th character of the string, 0-indexed from the left
// (most significant).  It panics if i is out of range.
func (a Addr) Bit(i int) byte {
	if i < 0 || i >= a.Level {
		panic(fmt.Sprintf("bitstr: bit %d out of range for level %d", i, a.Level))
	}
	return byte(a.Index >> uint(a.Level-1-i) & 1)
}

// Child returns the string extended by one bit b (0 or 1).
func (a Addr) Child(b byte) Addr {
	if a.Level >= MaxLevel {
		panic("bitstr: child would exceed MaxLevel")
	}
	return Addr{Level: a.Level + 1, Index: a.Index<<1 | uint64(b&1)}
}

// Parent returns the string with the last bit removed.  It panics on the
// root.
func (a Addr) Parent() Addr {
	if a.Level == 0 {
		panic("bitstr: root has no parent")
	}
	return Addr{Level: a.Level - 1, Index: a.Index >> 1}
}

// IsLast reports whether a is the lexicographically largest string of its
// level (all ones), i.e. has no successor.
func (a Addr) IsLast() bool {
	return a.Level < 64 && a.Index == uint64(1)<<uint(a.Level)-1
}

// IsFirst reports whether a is the all-zero string of its level, i.e. has no
// predecessor.
func (a Addr) IsFirst() bool { return a.Index == 0 }

// Successor returns the next string on the same level and true, or the zero
// Addr and false when a is the last string of its level.
func (a Addr) Successor() (Addr, bool) {
	if a.IsLast() || a.Level == 0 {
		return Addr{}, false
	}
	return Addr{Level: a.Level, Index: a.Index + 1}, true
}

// Predecessor returns the previous string on the same level and true, or the
// zero Addr and false when a is the first string of its level.
func (a Addr) Predecessor() (Addr, bool) {
	if a.IsFirst() || a.Level == 0 {
		return Addr{}, false
	}
	return Addr{Level: a.Level, Index: a.Index - 1}, true
}

// Append returns the concatenation a·suffix.
func (a Addr) Append(suffix Addr) Addr {
	if a.Level+suffix.Level > MaxLevel {
		panic("bitstr: append would exceed MaxLevel")
	}
	return Addr{Level: a.Level + suffix.Level, Index: a.Index<<uint(suffix.Level) | suffix.Index}
}

// AppendOnes returns a with k '1' bits appended.
func (a Addr) AppendOnes(k int) Addr {
	return a.Append(Addr{Level: k, Index: uint64(1)<<uint(k) - 1})
}

// AppendZeros returns a with k '0' bits appended.
func (a Addr) AppendZeros(k int) Addr {
	return a.Append(Addr{Level: k, Index: 0})
}

// Prefix returns the first k characters of a.
func (a Addr) Prefix(k int) Addr {
	if k < 0 || k > a.Level {
		panic(fmt.Sprintf("bitstr: prefix %d out of range for level %d", k, a.Level))
	}
	return Addr{Level: k, Index: a.Index >> uint(a.Level-k)}
}

// CommonPrefixLen returns the length of the longest common prefix of a and b.
func CommonPrefixLen(a, b Addr) int {
	n := a.Level
	if b.Level < n {
		n = b.Level
	}
	x := a.Prefix(n).Index ^ b.Prefix(n).Index
	if x == 0 {
		return n
	}
	return n - (bits.Len64(x))
}

// String renders the binary string; the root renders as "ε".
func (a Addr) String() string {
	if a.Level == 0 {
		return "ε"
	}
	var sb strings.Builder
	sb.Grow(a.Level)
	for i := 0; i < a.Level; i++ {
		sb.WriteByte('0' + a.Bit(i))
	}
	return sb.String()
}

// Parse converts a string of '0'/'1' characters (or "ε" / "" for the root)
// back into an Addr.
func Parse(s string) (Addr, error) {
	if s == "" || s == "ε" {
		return Root(), nil
	}
	if len(s) > MaxLevel {
		return Addr{}, fmt.Errorf("bitstr: string longer than %d", MaxLevel)
	}
	var a Addr
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			a = a.Child(0)
		case '1':
			a = a.Child(1)
		default:
			return Addr{}, fmt.Errorf("bitstr: invalid character %q at position %d", s[i], i)
		}
	}
	return a, nil
}

// MustParse is Parse that panics on error, for tests and literals.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ID converts the address into a dense heap numbering: the vertices of the
// complete levels 0..Level-1 precede it, so
//
//	ID = 2^Level − 1 + Index.
//
// IDs enumerate the X-tree vertices level by level, left to right, starting
// at 0 for the root.
func (a Addr) ID() int64 {
	return int64(uint64(1)<<uint(a.Level) - 1 + a.Index)
}

// FromID inverts ID.
func FromID(id int64) Addr {
	if id < 0 {
		panic("bitstr: negative ID")
	}
	u := uint64(id) + 1
	level := bits.Len64(u) - 1
	return Addr{Level: level, Index: u - uint64(1)<<uint(level)}
}

// NumVertices returns the number of X-tree vertices on levels 0..height,
// i.e. 2^(height+1) − 1.
func NumVertices(height int) int64 {
	if height < 0 {
		return 0
	}
	return int64(uint64(1)<<uint(height+1)) - 1
}
