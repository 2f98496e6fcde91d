// Package ident implements Treedoc position identifiers (PosIDs): paths in
// an extended binary tree of major nodes and disambiguated mini-nodes, as
// described in Section 3 of the ICDCS 2009 Treedoc paper.
//
// A PosID is a Path: a sequence of elements. Each element steps one level
// down the binary tree (bit 0 = left, bit 1 = right) and either selects a
// mini-node in the node it arrives at (a Mini element, carrying a
// disambiguator) or passes through the node's major slot (a Major element).
// The element after a Mini element departs from that mini-node's children;
// the element after a Major element departs from the major node's children.
//
// The package provides the strict total order over PosIDs that is consistent
// with the infix walk of the tree (Compare), the
// density primitives used by identifier allocation, and a compact binary
// encoding whose size accounting matches the paper's evaluation (Section 5):
// one bit per tree level plus the disambiguator bytes, where the reserved
// canonical disambiguator costs zero bytes.
package ident

import (
	"fmt"
	"strconv"
)

// SiteID identifies a replica site. The paper uses 6-byte identifiers (MAC
// addresses, Section 3.3.2); only the low 48 bits are meaningful. SiteID 0
// is reserved for the canonical disambiguator produced by explode.
type SiteID uint64

// MaxSiteID is the largest representable site identifier (48 bits, matching
// the paper's 6-byte MAC-address site identifiers).
const MaxSiteID SiteID = 1<<48 - 1

// Dis is a disambiguator: it makes concurrently allocated identifiers at the
// same tree position unique and ordered (Section 3.3).
//
// The two schemes of the paper share this representation:
//
//   - UDIS ("unique disambiguators"): a (counter, site) pair where counter is
//     a per-site persistent counter. Ordered by counter, then site.
//   - SDIS ("site disambiguators"): a bare site identifier; Counter is always
//     zero, so the UDIS order degrades to site order.
//
// The zero value is the reserved canonical disambiguator ⊥ assigned by
// explode to atoms of a compacted region. It sorts before every
// site-generated disambiguator and costs zero bytes on the wire, which keeps
// "a path of an atom [after explode] is a simple bitstring" (Section 4.2)
// true for size accounting.
type Dis struct {
	// Counter is the per-site persistent counter (UDIS only; zero in SDIS).
	Counter uint32
	// Site is the site identifier. Zero is reserved for canonical atoms.
	Site SiteID
}

// Canonical is the reserved disambiguator assigned by explode. It is the
// zero value of Dis.
var Canonical = Dis{}

// IsCanonical reports whether d is the reserved canonical disambiguator.
func (d Dis) IsCanonical() bool { return d == Canonical }

// Compare returns -1, 0, or +1 ordering disambiguators by (counter, site),
// per Section 3.3.1. The canonical disambiguator (0,0) sorts first.
func (d Dis) Compare(o Dis) int {
	switch {
	case d.Counter < o.Counter:
		return -1
	case d.Counter > o.Counter:
		return +1
	case d.Site < o.Site:
		return -1
	case d.Site > o.Site:
		return +1
	}
	return 0
}

// String renders the disambiguator for debugging: "⊥" for canonical,
// "s<site>" for SDIS-style, "c<counter>s<site>" for UDIS-style.
func (d Dis) String() string {
	if d.IsCanonical() {
		return "⊥"
	}
	if d.Counter == 0 {
		return "s" + strconv.FormatUint(uint64(d.Site), 10)
	}
	return "c" + strconv.FormatUint(uint64(d.Counter), 10) +
		"s" + strconv.FormatUint(uint64(d.Site), 10)
}

// Mode selects the disambiguator scheme, which determines deletion semantics
// (Section 3.3) and wire/storage cost (Section 5).
type Mode uint8

const (
	// SDIS uses bare site identifiers. Deleted atoms leave tombstones
	// (Section 3.3.2): the node is kept so the identifier is never reused.
	SDIS Mode = iota + 1
	// UDIS uses (counter, site) pairs, which are globally unique, so deleted
	// leaf mini-nodes are discarded immediately (Section 3.3.1).
	UDIS
)

// String returns the scheme name as used in the paper.
func (m Mode) String() string {
	switch m {
	case SDIS:
		return "SDIS"
	case UDIS:
		return "UDIS"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Cost is the byte-size model for disambiguators used in the paper's
// evaluation (Section 5): "We use 6 bytes for site identifiers in both UDIS
// and SDIS, and 4 bytes for the UDIS counter."
type Cost struct {
	// SiteBytes is the width of a site identifier (paper: 6).
	SiteBytes int
	// CounterBytes is the width of the UDIS counter (paper: 4; 0 for SDIS).
	CounterBytes int
}

// PaperCost returns the evaluation cost model of Section 5 for mode m:
// 6-byte sites, plus a 4-byte counter under UDIS.
func PaperCost(m Mode) Cost {
	c := Cost{SiteBytes: 6}
	if m == UDIS {
		c.CounterBytes = 4
	}
	return c
}

// CompactCost returns the "known membership" SDIS variant of Section 3.3.2,
// where each site is assigned a short integer: 2-byte site identifiers.
func CompactCost() Cost {
	return Cost{SiteBytes: 2}
}

// DisBytes returns the wire size of one disambiguator under this cost model.
func (c Cost) DisBytes() int { return c.SiteBytes + c.CounterBytes }

// Bits returns the size in bits of disambiguator d under this cost model.
// The canonical disambiguator is free: compacted atoms carry no metadata.
func (c Cost) Bits(d Dis) int {
	if d.IsCanonical() {
		return 0
	}
	return 8 * c.DisBytes()
}
