package doctree

import (
	"errors"
	"math"
)

// Slab chunks hold 64 records: 3 KiB of nodes, 2.5 KiB of minis. Chunks
// never move, so a record pointer stays valid across allocations, and a
// small document pays for at most one partly used chunk per slab.
const (
	chunkShift = 6
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// maxRecords is the handle space of one slab: handles are uint32 and 0 is
// nil, so a tree holds at most 2³²−1 nodes and as many mini-nodes.
const maxRecords = math.MaxUint32

// ErrFull reports an edit, explode, reserve or import that would need more
// node or mini-node records than 32-bit handles can address.
var ErrFull = errors.New("doctree: tree is full (2^32-1 records)")

// record is what a slab needs from its element type: a handle-sized field
// that threads the free list while the record is not in use.
type record[T any] interface {
	*T
	freeLink() *uint32
}

// slab is a chunked array of records addressed by uint32 handle. Handle 0 is
// nil: its record (slot 0 of the first chunk) is never handed out and stays
// zero, so reading a count through a nil child yields 0 without a branch.
// Released records are zeroed and chained through freeLink; alloc reuses
// them before growing.
type slab[T any, P record[T]] struct {
	chunks []*[chunkLen]T
	n      uint32 // highest handle ever handed out
	free   uint32 // head of the free chain
	nfree  uint32 // records on the free chain
}

// at returns the record of handle h.
func (s *slab[T, P]) at(h uint32) *T { return &s.chunks[h>>chunkShift][h&chunkMask] }

// used returns the number of records in use.
func (s *slab[T, P]) used() uint32 { return s.n - s.nfree }

// alloc returns the handle of a zeroed record. The caller has established
// room (Tree.room): the slab itself never refuses.
//
//treedoc:noalloc
func (s *slab[T, P]) alloc() uint32 {
	if h := s.free; h != 0 {
		link := P(s.at(h)).freeLink()
		s.free, *link = *link, 0
		s.nfree--
		return h
	}
	s.n++
	if int(s.n>>chunkShift) == len(s.chunks) {
		s.chunks = append(s.chunks, new([chunkLen]T)) //treedoc:escape one chunk per 64 records is the slab's only allocation
	}
	return s.n
}

// release zeroes the record of h, dropping whatever it referenced, and puts
// it on the free chain.
//
//treedoc:noalloc
func (s *slab[T, P]) release(h uint32) {
	p := s.at(h)
	var zero T
	*p = zero
	*P(p).freeLink() = s.free
	s.free = h
	s.nfree++
}

// reset drops every chunk: all handles become invalid at once and the
// memory goes back to the collector whatever the records pointed at.
func (s *slab[T, P]) reset() { *s = slab[T, P]{} }

// bytes returns the heap the slab holds: its chunks, in use or slack, and
// the chunk directory.
func (s *slab[T, P]) bytes(recordSize uintptr) int {
	return len(s.chunks)*chunkLen*int(recordSize) + cap(s.chunks)*8
}
