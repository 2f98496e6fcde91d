package doctree

import (
	"errors"
	"math"
)

// Slab chunks hold 64 records: 1,792 bytes of nodes, 1,280 of minis and,
// beside them, 256 of node stamps (Tree.stamps), each an exact Go size
// class, so no chunk carries slack; the atom store's hold 256 atoms, 4 KiB.
// Chunks never move, so a record pointer stays valid across allocations,
// and a small document pays for at most one partly used chunk per slab.
const (
	chunkShift = 6
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
	atomShift  = 8
	atomChunk  = 1 << atomShift
)

// maxRecords is the handle space of one slab: handles are uint32, 0 is nil
// and the last names a solo (soloMini), so a tree holds at most 2³²−2 nodes
// and as many mini-nodes.
const maxRecords = math.MaxUint32 - 1

// ErrFull reports an edit, explode, reserve or import that would need more
// node or mini-node records than 32-bit handles can address.
var ErrFull = errors.New("doctree: tree is full (2^32-2 records)")

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

// bytes returns the heap the slab holds: its chunks, in use or slack, and
// the chunk directory.
func (s *slab[T, P]) bytes(recordSize uintptr) int {
	return len(s.chunks)*chunkLen*int(recordSize) + cap(s.chunks)*8
}

// atomStore holds the atoms of live minis, named by mini.atom; handle 0 is
// nil and marks a dead mini. Its chunks are the only part of the tree the
// collector scans, and they hold live atoms only, 256 to a chunk (also an
// exact size class) so a replay allocates atom chunks a quarter as often as
// node chunks. A string has no spare field to thread a free chain through,
// so released handles go on a stack.
type atomStore struct {
	chunks []*[atomChunk]string
	n      uint32   // highest handle ever handed out
	free   []uint32 // released handles, reused last first
}

func (s *atomStore) at(h uint32) *string { return &s.chunks[h>>atomShift][h&(atomChunk-1)] }

// put stores a and returns its handle, never 0.
func (s *atomStore) put(a string) uint32 {
	h := s.n + 1
	if k := len(s.free); k > 0 {
		h, s.free = s.free[k-1], s.free[:k-1]
	} else if s.n = h; int(h>>atomShift) == len(s.chunks) {
		s.chunks = append(s.chunks, new([atomChunk]string))
	}
	*s.at(h) = a
	return h
}

// drop releases handle h and lets go of its text.
func (s *atomStore) drop(h uint32) {
	*s.at(h) = ""
	s.free = append(s.free, h)
}
