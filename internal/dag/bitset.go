package dag

import "math/bits"

// Bitset is a dense bitset over VertexID — the per-query selection
// representation of the overlay evaluation mode. Rather than interning a
// schema name and setting a bit in every selected vertex's label.Set (one
// allocation per touched vertex), an overlay query keeps each selection
// as one flat []uint64 column indexed by vertex, so set operations become
// word-wise loops and a selection costs no per-vertex allocations at all.
type Bitset []uint64

// bitsetWords returns the number of 64-bit words covering n vertices.
func bitsetWords(n int) int { return (n + 63) / 64 }

// Get reports whether vertex v is in the set. v must be < 64*len(b).
func (b Bitset) Get(v VertexID) bool {
	return b[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// Set adds vertex v to the set. v must be < 64*len(b).
func (b Bitset) Set(v VertexID) {
	b[uint(v)>>6] |= 1 << (uint(v) & 63)
}

// Clear removes vertex v from the set. v must be < 64*len(b).
func (b Bitset) Clear(v VertexID) {
	b[uint(v)>>6] &^= 1 << (uint(v) & 63)
}

// Zero clears every bit in place.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// CopyFrom overwrites b with src (same length).
func (b Bitset) CopyFrom(src Bitset) {
	copy(b, src)
}
