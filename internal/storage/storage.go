// Package storage is the on-disk Treedoc representation of Section 5.2: the
// identifier tree laid out as a binary heap — "nodes are stored from top to
// bottom, line by line, and nodes on the same line are stored left to
// right". Where the paper fills missing nodes with run-length-encoded
// markers, here each node says which of its children exist, so a missing
// node costs nothing and a present one starts at one byte. The layout and
// its codec, which reads and builds the tree's records directly, are
// internal/doctree's (codec.go); this package owns the buffers and the size
// accounting.
//
// Atoms are stored inline rather than in the paper's separate atom file;
// Measure separates structure bytes from atom bytes so the "On-disk
// overhead" column of Table 1 (structure relative to document size) is
// computed the same way.
package storage

import (
	"fmt"
	"sync"

	"github.com/treedoc/treedoc/internal/doctree"
)

// encScratch pools the growth buffer encodings are built in: the size is
// unknown until the tree has been walked, so building in reused scratch and
// copying once keeps append-growth garbage out of every snapshot and stats
// cycle. Pooled buffers never escape: EncodeAfter copies, Measure reads len.
var encScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Encode serialises the document tree. The result is exactly sized.
func Encode(t *doctree.Tree) []byte { return EncodeAfter(nil, t) }

// EncodeAfter is Encode behind header, a snapshot's own leading fields: one
// exactly sized result, with no slack capacity for its holder to retain.
//
//treedoc:noalloc
func EncodeAfter(header []byte, t *doctree.Tree) []byte {
	bp := encScratch.Get().(*[]byte)
	buf := AppendEncode(append((*bp)[:0], header...), t)
	out := make([]byte, len(buf)) //treedoc:escape the exact-size result copy is the function's one allocation
	copy(out, buf)
	*bp = buf[:0]
	encScratch.Put(bp)
	return out
}

// AppendEncode appends the tree's encoding to dst and returns the extended
// slice, for callers with their own buffer.
//
//treedoc:noalloc
func AppendEncode(dst []byte, t *doctree.Tree) []byte { return t.AppendSnapshot(dst) }

// Decode reconstructs a document tree from an external input (disk, network):
// see doctree.DecodeSnapshot for what it bounds and refuses — among it any
// older format, by name — and why what it accepts passes the tree's Check.
func Decode(data []byte) (*doctree.Tree, error) {
	t, err := doctree.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("storage: decode: %w", err)
	}
	return t, nil
}

// Measurement separates document content from structural overhead, as the
// paper does by keeping atoms in a separate file.
type Measurement struct {
	// TotalBytes is the full encoded size (structure + atoms).
	TotalBytes int
	// AtomBytes is the bytes of live atom content.
	AtomBytes int
	// OverheadBytes is TotalBytes - AtomBytes: Table 1's "On-disk overhead,
	// bytes" column.
	OverheadBytes int
}

// OverheadPercent is overhead relative to document size (Table 1's "% doc").
func (m Measurement) OverheadPercent() float64 {
	if m.AtomBytes == 0 {
		return 0
	}
	return 100 * float64(m.OverheadBytes) / float64(m.AtomBytes)
}

// Measure encodes the tree and reports the size split. The encoding runs
// entirely in pooled scratch — only the sizes survive — and the atom bytes
// are summed by streaming the live atoms rather than materialising them.
func Measure(t *doctree.Tree) Measurement {
	bp := encScratch.Get().(*[]byte)
	buf := AppendEncode((*bp)[:0], t)
	m := Measurement{TotalBytes: len(buf)}
	*bp = buf[:0]
	encScratch.Put(bp)
	t.VisitBytes(0, t.Len(), func(a []byte) bool {
		m.AtomBytes += len(a)
		return true
	})
	m.OverheadBytes = m.TotalBytes - m.AtomBytes
	return m
}
