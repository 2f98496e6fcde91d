// Package storage implements the on-disk Treedoc representation of
// Section 5.2: the identifier tree laid out as a binary heap — "nodes are
// stored from top to bottom, line by line, and nodes on the same line are
// stored left to right" — where each entry carries a disambiguator and a
// reference to its atom, missing nodes are filled with a special marker,
// and "sequences of markers are compressed with run-length encoding".
//
// Atoms are stored inline rather than in the paper's separate atom file;
// Measure separates structure bytes from atom bytes so the "On-disk
// overhead" column of Table 1 (structure relative to document size) is
// computed the same way.
package storage

import (
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
	"github.com/treedoc/treedoc/internal/intern"
)

// Format marker and version.
var magic = [4]byte{'T', 'D', 'C', '1'}

// Slot token kinds.
const (
	tokAbsentRun = 0x00 // followed by uvarint run length
	tokNode      = 0x01 // followed by uvarint mini count and minis
	tokFlat      = 0x02 // followed by uvarint atom count and atoms
)

// Mini flag bits.
const (
	miniDead      = 1 << 0
	miniCanonical = 1 << 1
)

// encScratch pools the growth buffer Encode and Measure serialise into:
// the encoded size is unknown up front, so building in a reused scratch
// and copying once keeps the append-growth garbage out of every snapshot,
// stats and anti-entropy cycle. Pooled buffers never escape: Encode hands
// out an exact-size copy, Measure only reads the length.
var encScratch = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Encode serialises the document tree. The result is exactly sized.
//
//treedoc:noalloc
func Encode(t *doctree.Tree) []byte {
	bp := encScratch.Get().(*[]byte)
	buf := AppendEncode((*bp)[:0], t)
	out := make([]byte, len(buf)) //treedoc:escape the exact-size result copy is the function's one allocation
	copy(out, buf)
	*bp = buf[:0]
	encScratch.Put(bp)
	return out
}

// AppendEncode appends the tree's encoding to dst and returns the extended
// slice, letting callers with their own buffer (snapshot headers, pooled
// scratch) serialise without an intermediate copy.
//
//treedoc:noalloc
func AppendEncode(dst []byte, t *doctree.Tree) []byte {
	buf := append(dst, magic[:]...)
	run := uint64(0)
	flushRun := func() {
		if run > 0 {
			buf = append(buf, tokAbsentRun)
			buf = binary.AppendUvarint(buf, run)
			run = 0
		}
	}
	t.ExportBFS(func(en doctree.ExportNode) {
		if !en.Present {
			run++
			return
		}
		flushRun()
		if en.IsFlat {
			buf = append(buf, tokFlat)
			buf = binary.AppendUvarint(buf, uint64(len(en.Flat)))
			for _, a := range en.Flat {
				buf = binary.AppendUvarint(buf, uint64(len(a)))
				buf = append(buf, a...)
			}
			return
		}
		buf = append(buf, tokNode)
		buf = binary.AppendUvarint(buf, uint64(len(en.Minis)))
		for _, m := range en.Minis {
			var flags byte
			if m.Dead {
				flags |= miniDead
			}
			if m.Dis.IsCanonical() {
				flags |= miniCanonical
			}
			buf = append(buf, flags)
			if !m.Dis.IsCanonical() {
				buf = binary.AppendUvarint(buf, uint64(m.Dis.Counter))
				buf = binary.AppendUvarint(buf, uint64(m.Dis.Site))
			}
			if !m.Dead {
				buf = binary.AppendUvarint(buf, uint64(len(m.Atom)))
				buf = append(buf, m.Atom...)
			}
		}
	})
	flushRun()
	return buf
}

// decoder reads the slot stream.
type decoder struct {
	buf []byte
	off int
	run uint64 // remaining absent-run slots
	// seen interns multi-byte atoms repeated across the snapshot, so a
	// document of recurring tokens decodes into shared strings instead of
	// one allocation per occurrence. Single ASCII atoms — the whole
	// document, at character granularity — intern through the global table
	// and never touch the map.
	seen map[string]string
}

// atom converts decoded atom bytes to a string through the intern paths.
func (d *decoder) atom(b []byte) string {
	if len(b) <= 1 {
		return intern.Bytes(b)
	}
	// The map lookup keyed by string(b) does not allocate; only the first
	// occurrence of each distinct atom pays for its string.
	if s, ok := d.seen[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.seen == nil {
		d.seen = make(map[string]string)
	}
	d.seen[s] = s
	return s
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("storage: truncated varint at %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, fmt.Errorf("storage: truncated payload at %d", d.off)
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) next() (doctree.ExportNode, error) {
	if d.run > 0 {
		d.run--
		return doctree.ExportNode{}, nil
	}
	if d.off >= len(d.buf) {
		// Trailing absent slots may be omitted entirely.
		return doctree.ExportNode{}, nil
	}
	tok := d.buf[d.off]
	d.off++
	switch tok {
	case tokAbsentRun:
		n, err := d.uvarint()
		if err != nil {
			return doctree.ExportNode{}, err
		}
		if n == 0 {
			return doctree.ExportNode{}, fmt.Errorf("storage: zero-length marker run")
		}
		d.run = n - 1
		return doctree.ExportNode{}, nil
	case tokFlat:
		n, err := d.uvarint()
		if err != nil {
			return doctree.ExportNode{}, err
		}
		// Each atom costs at least its one-byte length prefix, so a count
		// beyond the remaining bytes is corrupt; checking before make()
		// keeps a hostile prefix from forcing an arbitrary allocation.
		if n > uint64(len(d.buf)-d.off) {
			return doctree.ExportNode{}, fmt.Errorf("storage: flat count %d exceeds buffer", n)
		}
		atoms := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			alen, err := d.uvarint()
			if err != nil {
				return doctree.ExportNode{}, err
			}
			b, err := d.bytes(alen)
			if err != nil {
				return doctree.ExportNode{}, err
			}
			atoms = append(atoms, d.atom(b))
		}
		return doctree.ExportNode{Present: true, IsFlat: true, Flat: atoms}, nil
	case tokNode:
		n, err := d.uvarint()
		if err != nil {
			return doctree.ExportNode{}, err
		}
		// Each mini costs at least its flags byte; see the tokFlat bound.
		if n > uint64(len(d.buf)-d.off) {
			return doctree.ExportNode{}, fmt.Errorf("storage: mini count %d exceeds buffer", n)
		}
		minis := make([]doctree.ExportMini, 0, n)
		for i := uint64(0); i < n; i++ {
			if d.off >= len(d.buf) {
				return doctree.ExportNode{}, fmt.Errorf("storage: truncated mini flags")
			}
			flags := d.buf[d.off]
			d.off++
			var m doctree.ExportMini
			m.Dead = flags&miniDead != 0
			if flags&miniCanonical == 0 {
				c, err := d.uvarint()
				if err != nil {
					return doctree.ExportNode{}, err
				}
				s, err := d.uvarint()
				if err != nil {
					return doctree.ExportNode{}, err
				}
				if c > 1<<32-1 || ident.SiteID(s) > ident.MaxSiteID {
					return doctree.ExportNode{}, fmt.Errorf("storage: disambiguator out of range")
				}
				m.Dis = ident.Dis{Counter: uint32(c), Site: ident.SiteID(s)}
			}
			if !m.Dead {
				alen, err := d.uvarint()
				if err != nil {
					return doctree.ExportNode{}, err
				}
				b, err := d.bytes(alen)
				if err != nil {
					return doctree.ExportNode{}, err
				}
				m.Atom = d.atom(b)
			}
			minis = append(minis, m)
		}
		return doctree.ExportNode{Present: true, Minis: minis}, nil
	default:
		return doctree.ExportNode{}, fmt.Errorf("storage: invalid slot token %#x at %d", tok, d.off-1)
	}
}

// Decode reconstructs a document tree. The result is validated against the
// structural invariants before it is returned: a snapshot is an external
// input (disk, network), and a byte pattern no encoder produces — such as
// a live mini-node at the root, whose empty path is not a legal atom
// identifier — must not become a corrupt in-memory tree.
func Decode(data []byte) (*doctree.Tree, error) {
	if len(data) < len(magic) || string(data[:4]) != string(magic[:]) {
		return nil, fmt.Errorf("storage: bad magic")
	}
	d := &decoder{buf: data, off: len(magic)}
	t, err := doctree.BuildFromBFS(d.next)
	if err != nil {
		return nil, fmt.Errorf("storage: decode: %w", err)
	}
	if err := t.Check(); err != nil {
		return nil, fmt.Errorf("storage: invalid snapshot: %w", err)
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
	t.VisitLive(func(_ int, a string) bool {
		m.AtomBytes += len(a)
		return true
	})
	m.OverheadBytes = m.TotalBytes - m.AtomBytes
	return m
}
