package ident

import (
	"fmt"
	"slices"
	"unsafe"
)

// Packed is an identifier at rest: exactly the wire encoding of a path
// (encode.go), the form that crosses the wire and the form everything that
// outlives a call holds — an operation's ID, the retained log and the
// causal buffer through it. A Path is the other form, the one a tree walk
// reads and a strategy builds, and lives in a scratch buffer somebody owns
// and reuses.
//
// A path has one accepted encoding, so two Packed are the same identifier
// exactly when they are ==, encoding one is a copy (AppendBinary), and
// decoding one checks the bytes in place and copies them (DecodePacked).
// The type is opaque: Pack and DecodePacked are the only ways to make one,
// so every Packed but the zero value is a checked, canonical encoding and
// nothing downstream checks it again. The zero Packed is no identifier: the
// root path packs to two zero bytes.
type Packed struct{ s string }

// Pack returns the packed form of p. It encodes what AppendBinary writes,
// which masks a bit above 1 and drops an unknown kind: a path from outside
// the program is validated before it is packed.
//
//treedoc:noalloc
func Pack(p Path) Packed {
	var buf [48]byte                               // five times the median identifier; a longer one grows onto the heap
	return Packed{string(p.AppendBinary(buf[:0]))} //treedoc:escape the string is the identifier's one allocation
}

// uvarint reads one minimally encoded uvarint at buf[off:] and returns it
// with the offset past it, 0 when there is none: it runs off the buffer,
// overflows 64 bits or ends in a zero byte. Almost every one is one byte.
func uvarint(buf string, off int) (uint64, int) {
	if off < len(buf) && buf[off] < 0x80 {
		return uint64(buf[off]), off + 1
	}
	var v uint64
	for i := off; i < len(buf) && i < off+10; i++ {
		b := buf[i]
		if b >= 0x80 {
			v |= uint64(b&0x7f) << (7 * (i - off))
			continue
		}
		if i == off+9 && b > 1 || b == 0 {
			break // overflows 64 bits, or a trailing zero byte
		}
		return v | uint64(b)<<(7*(i-off)), i + 1
	}
	return 0, 0
}

// errUvarint says which field of the encoding a failed read was after.
func errUvarint(what string) error {
	return fmt.Errorf("ident: truncated or non-minimal %s", what)
}

// scan checks that buf opens with the one accepted encoding of a path and
// returns the bytes the encoding occupies. It is the only place an encoding
// is checked, and DecodePacked its one caller.
func scan(buf string) (size int, err error) {
	un, off := uvarint(buf, 0)
	if off == 0 {
		return 0, errUvarint("path length")
	}
	if un > MaxPathLen || un > 8*uint64(len(buf)-off) {
		return 0, fmt.Errorf("ident: path length %d exceeds limit or buffer", un)
	}
	off += int(un+7) / 8
	if un&7 != 0 && buf[off-1]>>(un&7) != 0 {
		return 0, fmt.Errorf("ident: non-zero pad bits after %d path elements", un)
	}
	k, off := uvarint(buf, off)
	if off == 0 {
		return 0, errUvarint("mini count")
	}
	if k > un {
		return 0, fmt.Errorf("ident: %d mini elements in a path of %d", k, un)
	}
	next := uint64(0)
	for ; k > 0; k-- {
		var g, c, s uint64
		if g, off = uvarint(buf, off); off == 0 {
			return 0, errUvarint("mini entry")
		}
		if g>>1 >= un-next { // also next == n: no element left to hold it
			return 0, fmt.Errorf("ident: mini element beyond path length %d", un)
		}
		next += g>>1 + 1
		if g&1 == 0 {
			continue
		}
		if c, off = uvarint(buf, off); off == 0 {
			return 0, errUvarint("counter")
		}
		if s, off = uvarint(buf, off); off == 0 {
			return 0, errUvarint("site")
		}
		if c > 1<<32-1 || SiteID(s) > MaxSiteID || c|s == 0 {
			return 0, fmt.Errorf("ident: disambiguator (%d, %d) out of range", c, s)
		}
	}
	return off, nil
}

// DecodePacked checks one path encoding at the front of buf and returns it
// with the number of bytes consumed. The copy into the string is the whole
// cost of holding an identifier: ⌈n/8⌉ bytes and a few.
//
//treedoc:noalloc
func DecodePacked(buf []byte) (Packed, int, error) {
	// The decoder reads strings, the form an identifier rests in; it gets a
	// string's view of the frame's bytes for the length of the call.
	size, err := scan(unsafe.String(unsafe.SliceData(buf), len(buf)))
	if err != nil {
		return Packed{}, 0, err
	}
	return Packed{string(buf[:size])}, size, nil //treedoc:escape the string is the identifier's one allocation
}

// Len returns the tree depth of the identifier (number of elements), 0 for
// the zero Packed.
func (k Packed) Len() int {
	n, _ := uvarint(k.s, 0)
	return int(n)
}

// AppendPath appends the elements of k to dst and returns the result: the
// one way from the form that is held to the form that is walked. The cost
// is one 24-byte element written per level; the zero Packed appends none.
//
//treedoc:noalloc
func (k Packed) AppendPath(dst Path) Path {
	buf := k.s
	un, off := uvarint(buf, 0)
	n, base := int(un), len(dst)
	dst = slices.Grow(dst, n)[:base+n] //treedoc:escape growing the caller's scratch
	p, bits := dst[base:], buf[off:]
	for i := 0; i < n; i += 8 {
		b := bits[i>>3]
		if q := p[i:]; len(q) >= 8 {
			q = q[:8:8]
			q[0], q[1], q[2], q[3] = J(b&1), J(b>>1&1), J(b>>2&1), J(b>>3&1)
			q[4], q[5], q[6], q[7] = J(b>>4&1), J(b>>5&1), J(b>>6&1), J(b>>7)
			continue
		}
		for j := range p[i:] {
			p[i+j] = J(b >> j & 1)
		}
	}
	minis, off := uvarint(buf, off+(n+7)/8)
	for at := 0; minis > 0; minis-- {
		var g, c, s uint64
		g, off = uvarint(buf, off)
		at += int(g>>1) + 1
		e := &p[at-1]
		e.Kind = Mini
		if g&1 != 0 {
			c, off = uvarint(buf, off)
			s, off = uvarint(buf, off)
			e.Dis = Dis{Counter: uint32(c), Site: SiteID(s)}
		}
	}
	return dst
}

// minis reads k's mini list, which DecodePacked or Pack already checked:
// the path's length, the depth just past its last Mini element (0 without
// one) and how many Mini elements spell a disambiguator out.
func (k Packed) minis() (n, last, spelled int) {
	un, off := uvarint(k.s, 0)
	m, off := uvarint(k.s, off+int(un+7)/8)
	for ; m > 0; m-- {
		var g uint64
		if g, off = uvarint(k.s, off); g&1 != 0 {
			_, off = uvarint(k.s, off)
			_, off = uvarint(k.s, off)
			spelled++
		}
		last += int(g>>1) + 1
	}
	return int(un), last, spelled
}

// IsAtom reports whether k is an atom identifier (Path.Validate): a path
// ending with a Mini element. Any other non-zero Packed is a structural
// path (Path.ValidateStructural): the root, or a path ending with a Major.
func (k Packed) IsAtom() bool {
	n, last, _ := k.minis()
	return n > 0 && last == n
}

// Bits returns the identifier's size in bits under cost model c, as
// Path.Bits does: one bit per element plus the cost of each Mini element's
// disambiguator, the canonical one being free.
func (k Packed) Bits(c Cost) int {
	n, _, spelled := k.minis()
	return n + spelled*8*c.DisBytes()
}

// AppendBinary appends the wire encoding of the identifier — k itself — to
// dst and returns the result.
//
//treedoc:noalloc
func (k Packed) AppendBinary(dst []byte) []byte { return append(dst, k.s...) }

// String renders the identifier in the paper's notation (Path.String).
func (k Packed) String() string { return k.AppendPath(nil).String() }
