package doctree

import (
	"errors"
	"math"
	"slices"
)

// Slab chunks hold 64 records: 1,792 bytes of nodes, 1,280 of minis and,
// beside them, 256 of node stamps (Tree.stamps), each an exact Go size
// class, so no chunk carries slack; the atom store's blocks hold 64 atoms.
// Chunks never move, so a record pointer stays valid across allocations,
// and a small document pays for at most one partly used chunk per slab.
const (
	chunkShift = 6
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// maxRecords is the handle space of one slab: handles are uint32, 0 is nil
// and the last names a solo (soloMini), so a tree holds at most 2³²−2 nodes
// and as many mini-nodes.
const maxRecords = math.MaxUint32 - 1

// ErrFull reports an edit, explode, reserve or import that would need more
// node or mini-node records than 32-bit handles can address, or more sites
// than a 16-bit index names.
var ErrFull = errors.New("doctree: tree is full (2^32-2 records or 65,535 sites)")

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

// atomStore holds the text of live atoms, a mini's named by its atom handle
// (0, nil: a dead mini) and a flat region's by a run of them. A block of 64
// handles packs its text in handle order: an atom costs its bytes and a
// 4-byte end, and the collector scans one pointer per 64 atoms. Released
// handles go on a stack.
type atomStore struct {
	blocks []*atomBlock
	n      uint32   // highest handle ever handed out
	free   []uint32 // released handles, reused last first
}

// atomBlock packs slot i's text at buf[end[i-1]:end[i]] (end[-1] = 0); a free
// slot holds none, and ends past the last handle handed out are unset. A put
// or a drop moves the tail and the ends above it. The buffer grows to 9/8 of
// what it needs, and a drop shrinks a roomy one to 9/8. The open block, the
// one fresh handles fill, grows at least to hold 64 of its first atom (up to
// 4 KiB), and is cut to fit as the next opens.
type atomBlock struct {
	end [chunkLen]uint32
	buf []byte
}

// roomy reports whether a buffer of l bytes and capacity c, not the open block's,
// is less than half used, beyond the 16 bytes a size class rounds it up by.
func roomy(l, c int, open bool) bool { return !open && 2*l+16 < c }

// span returns h's block, where h's text lies and the block's top slot handed out.
func (s *atomStore) span(h uint32) (b *atomBlock, lo, hi, top uint32) {
	if b, top = s.blocks[h>>chunkShift], chunkMask; h&chunkMask > 0 {
		lo = b.end[h&chunkMask-1]
	}
	if h>>chunkShift == s.n>>chunkShift {
		top = s.n & chunkMask
	}
	return b, lo, b.end[h&chunkMask], top
}

// text returns handle h's text in place, valid until the next put or drop.
func (s *atomStore) text(h uint32) []byte { b, lo, hi, _ := s.span(h); return b.buf[lo:hi:hi] }

// fresh hands out handle n+1; one that opens a block cuts the block before
// to fit. Blocks come four to an allocation, 1,120 bytes in the 1,152-byte
// size class.
func (s *atomStore) fresh() uint32 {
	if s.n++; s.n&chunkMask != 0 && s.n != 1 {
		return s.n
	}
	if int(s.n>>chunkShift) == len(s.blocks) {
		g := new([4]atomBlock)
		s.blocks = append(s.blocks, &g[0], &g[1], &g[2], &g[3])
	}
	if b := s.blocks[max(s.n>>chunkShift, 1)-1]; cap(b.buf) > len(b.buf)+len(b.buf)/8 {
		b.buf = append([]byte(nil), b.buf...)
	}
	return s.n
}

// put stores a at the last released handle or a fresh one, never 0, and returns it.
func (s *atomStore) put(a string) uint32 {
	var h uint32
	if k := len(s.free); k > 0 {
		h, s.free = s.free[k-1], s.free[:k-1]
	} else {
		h = s.fresh()
	}
	b, lo, _, top := s.span(h)
	if need := len(b.buf) + len(a); need > cap(b.buf) {
		want := need + need/8
		if top < chunkMask { // the open block: room for its slots to come
			want = max(want, min(chunkLen*need, 4096))
		}
		b.buf = append(append(append(slices.Grow([]byte(nil), want), b.buf[:lo]...), a...), b.buf[lo:]...)
	} else {
		b.buf = b.buf[:need]
		copy(b.buf[int(lo)+len(a):], b.buf[lo:])
		copy(b.buf[lo:], a)
	}
	b.end[h&chunkMask] = lo // a fresh handle's end is unset
	for i := h & chunkMask; i <= top; i++ {
		b.end[i] += uint32(len(a))
	}
	return h
}

// drop releases handle h and lets go of its text.
func (s *atomStore) drop(h uint32) {
	b, lo, hi, top := s.span(h)
	b.buf = append(b.buf[:lo], b.buf[hi:]...)
	for i := h & chunkMask; i <= top; i++ {
		b.end[i] -= hi - lo
	}
	if l := len(b.buf); roomy(l, cap(b.buf), top < chunkMask) {
		b.buf = append(slices.Grow([]byte(nil), l+l/8), b.buf...)
	}
	s.free = append(s.free, h)
}

// load fills an empty store with the atoms fill hands add, at handles from 1
// on, which add returns. A block's text gathers in scratch and becomes its
// buffer, clipped to fit, before the next block opens or when the load ends,
// so fresh finds nothing to cut.
func (s *atomStore) load(fill func(add func(a []byte) uint32)) {
	var scratch []byte
	fill(func(a []byte) uint32 {
		if s.n&chunkMask == chunkMask { // the block is full
			s.blocks[s.n>>chunkShift].buf, scratch = slices.Clip(slices.Clone(scratch)), scratch[:0]
		}
		h := s.fresh()
		scratch = append(scratch, a...)
		s.blocks[h>>chunkShift].end[h&chunkMask] = uint32(len(scratch))
		return h
	})
	if s.n > 0 {
		s.blocks[s.n>>chunkShift].buf = slices.Clip(slices.Clone(scratch))
	}
}
