package shard

import "encoding/binary"

// Cells is a packed table of w-bit codes, the pointer storage of
// Reversal and arrow.ShardForest: cell i is bits [i·w, i·w+w) of one
// little-endian byte string, read and written through the unaligned
// 64-bit word that starts at the cell's first byte. Eight bytes of tail
// padding keep that word inside the slice for the last cell, so Get and
// Set are one load, a shift and a mask (plus a store) for every width up
// to 57 bits. The table starts zeroed: each stepper picks its code so
// that zero is its initial pointer.
type Cells struct {
	b    []byte
	w    uint
	mask uint64
}

// NewCells returns size cells of w bits, every code 0.
func NewCells(w, size int) Cells {
	return Cells{b: make([]byte, (w*size+7)/8+8), w: uint(w), mask: 1<<w - 1}
}

// Get returns cell i's code.
func (c *Cells) Get(i int) uint32 {
	bit := uint(i) * c.w
	return uint32(binary.LittleEndian.Uint64(c.b[bit>>3:]) >> (bit & 7) & c.mask)
}

// Set stores code x, which must fit in w bits, in cell i.
func (c *Cells) Set(i int, x uint32) {
	bit := uint(i) * c.w
	word, s := c.b[bit>>3:], bit&7
	binary.LittleEndian.PutUint64(word, binary.LittleEndian.Uint64(word)&^(c.mask<<s)|uint64(x)<<s)
}
