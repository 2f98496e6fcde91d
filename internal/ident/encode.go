package ident

import "encoding/binary"

// Wire encoding of a Path — one bit per tree level, a disambiguator only
// where there is a mini-node (the paper's PosID, Section 3.1):
//
//	uvarint n     number of elements
//	⌈n/8⌉ bytes   descent bits, element i in bit i%8 of byte i/8, pad bits zero
//	uvarint k     number of Mini elements
//	k entries     uvarint(gap<<1 | site): gap Major elements lie between the
//	              previous Mini (or the start) and this one; with the site bit
//	              set uvarint(counter) and uvarint(site) follow, clear it is
//	              the canonical disambiguator
//
// A path has exactly one accepted encoding: depths ascend by construction,
// and non-zero pad bits, a non-minimal uvarint, a depth beyond n or a
// spelled-out canonical disambiguator are decode errors.
//
// This is the transport encoding. The paper-comparable identifier size
// (Section 5's PosID columns) is the analytic Path.Bits(Cost) model; the
// on-disk document format of Section 5.2 lives in internal/storage.

// MaxPathLen bounds the elements of one decoded path. A packed path lets one
// wire byte claim eight 24-byte elements, so the length is checked against
// this and against the bytes actually present before anything is allocated.
const MaxPathLen = 1 << 16

// AppendBinary appends the wire encoding of p to dst and returns the result.
//
//treedoc:noalloc
func (p Path) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	// One pass packs the bits, a byte of eight elements per step, and counts
	// the minis: rare (an identifier has one per concurrent insert on its way
	// down, and its last element), so eight elements are searched only when
	// one of their kinds says so, and the entries are written from the first.
	k, first := 0, len(p)
	for i := 0; i < len(p); i += 8 {
		q := p[i:]
		if len(q) < 8 { // the last byte: pad with elements that add no bit and no mini
			var pad [8]Elem
			copy(pad[:], q)
			q = pad[:]
		}
		q = q[:8:8]
		dst = append(dst, q[0].Bit&1|q[1].Bit&1<<1|q[2].Bit&1<<2|q[3].Bit&1<<3|
			q[4].Bit&1<<4|q[5].Bit&1<<5|q[6].Bit&1<<6|q[7].Bit<<7)
		if (q[0].Kind|q[1].Kind|q[2].Kind|q[3].Kind|q[4].Kind|q[5].Kind|q[6].Kind|q[7].Kind)&Mini == 0 {
			continue
		}
		for j := range q {
			if q[j].Kind == Mini {
				k, first = k+1, min(first, i+j)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(k))
	next := 0 // the depth a Mini entry with gap 0 would have
	for i := first; i < len(p); i++ {
		e, gap := &p[i], uint64(i-next)<<1
		switch {
		case e.Kind != Mini:
			continue
		case e.Dis.IsCanonical():
			dst = binary.AppendUvarint(dst, gap)
		default:
			dst = binary.AppendUvarint(dst, gap|1)
			dst = binary.AppendUvarint(dst, uint64(e.Dis.Counter))
			dst = binary.AppendUvarint(dst, uint64(e.Dis.Site))
		}
		next = i + 1
	}
	return dst
}

// DecodePath decodes one path from the front of buf into a fresh Path,
// returning it and the number of bytes consumed. A caller that keeps the
// identifier holds the Packed instead, and one that walks it expands that
// into a scratch it owns.
func DecodePath(buf []byte) (Path, int, error) {
	k, n, err := DecodePacked(buf)
	if err != nil {
		return nil, 0, err
	}
	return k.AppendPath(make(Path, 0, k.Len())), n, nil
}
