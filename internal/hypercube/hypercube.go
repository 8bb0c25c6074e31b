// Package hypercube implements the hypercube hosts used by Theorem 3 and
// the classic embeddings the paper builds on (§3): the inorder embedding of
// a complete binary tree into its optimal hypercube with dilation 2, and
// Lemma 3's embedding χ of the X-tree X(r) into Q_{r+1} that stretches
// distances by at most one.
package hypercube

import (
	"fmt"
	"math/bits"

	"xtreesim/internal/bitstr"
)

// Hypercube is the d-dimensional hypercube Q_d with 2^d vertices, each a
// d-bit label; two vertices are adjacent iff their labels differ in one bit.
type Hypercube struct {
	dim int
}

// New returns Q_d.
func New(dim int) *Hypercube {
	if dim < 0 || dim > 62 {
		panic(fmt.Sprintf("hypercube: dimension %d out of range", dim))
	}
	return &Hypercube{dim: dim}
}

// Dim returns d.
func (h *Hypercube) Dim() int { return h.dim }

// NumVertices returns 2^d.
func (h *Hypercube) NumVertices() int64 { return int64(1) << uint(h.dim) }

// Distance returns the Hamming distance between two vertex labels.
func (h *Hypercube) Distance(u, v uint64) int {
	return bits.OnesCount64(u ^ v)
}

// Inorder is the classic "inorder embedding" δ_io of the vertices of the
// complete binary tree B_r (all binary strings of length ≤ r) into Q_{r+1}:
//
//	δ_io(α) = α 1 0^(r−|α|)
//
// It has dilation 2, and nodes at tree distance Δ map to cube distance at
// most Δ+1.
func Inorder(a bitstr.Addr, r int) uint64 {
	if a.Level > r {
		panic("hypercube: inorder address deeper than tree height")
	}
	// Result is an (r+1)-bit label: the bits of a, then 1, then zeros.
	return (a.Index<<1 | 1) << uint(r-a.Level)
}

// Chi is Lemma 3's embedding of the X-tree X(r) into the hypercube Q_{r+1}:
//
//	χ(α) = ψ(α) 1 0^(r−|α|)
//
// where ψ prefix-XORs the bits of α (b_1 = a_1; b_v = a_v iff a_{v−1} = 0,
// i.e. b_v = a_v XOR a_{v−1}).  If α and β are X-tree vertices at distance
// Δ, then χ(α) and χ(β) are at Hamming distance at most Δ+1.
func Chi(a bitstr.Addr, r int) uint64 {
	if a.Level > r {
		panic("hypercube: chi address deeper than tree height")
	}
	return (psi(a)<<1 | 1) << uint(r-a.Level)
}

// psi applies the prefix-XOR bit transform of Lemma 3 to the bits of a.
// Reading the label big-endian (first character = most significant bit),
// b_v = a_v XOR a_{v-1} with a_0 = 0, which is exactly idx XOR (idx >> 1)
// — the binary-reflected Gray code of the index.
func psi(a bitstr.Addr) uint64 {
	return a.Index ^ (a.Index >> 1)
}

// ChiInverseLevel recovers the X-tree address from a χ image, given the
// X-tree height r.  It returns false if the label is not in χ's range.
func ChiInverseLevel(label uint64, r int) (bitstr.Addr, bool) {
	if label == 0 {
		return bitstr.Addr{}, false // 0^{r+1} is not an image
	}
	tz := bits.TrailingZeros64(label)
	level := r - tz
	if level < 0 || level > r {
		return bitstr.Addr{}, false
	}
	g := label >> uint(tz+1) // ψ(α): drop the trailing zeros and the 1
	// Invert the Gray code: idx = prefix-XOR of g.
	idx := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		idx ^= idx >> shift
	}
	a := bitstr.Addr{Level: level, Index: idx}
	if !a.Valid() {
		return bitstr.Addr{}, false
	}
	return a, true
}
