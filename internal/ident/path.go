package ident

import (
	"fmt"
	"strings"
)

// Kind distinguishes the two element forms of Section 3.1: elements that
// carry a disambiguator (selecting a mini-node) and elements that do not
// (passing through a major node).
type Kind uint8

const (
	// Major is a path element without a disambiguator: it "refers to the
	// children of the corresponding major node" (Section 3.1).
	Major Kind = iota + 1
	// Mini is a path element with a disambiguator: it selects a mini-node of
	// the node it steps into; subsequent elements descend from that
	// mini-node's children.
	Mini
)

// Elem is one element of a PosID path: a step down the binary tree plus an
// optional mini-node selection.
type Elem struct {
	// Bit is the descent direction: 0 = left child, 1 = right child.
	Bit uint8
	// Kind says whether the element selects a mini-node (Mini) or passes
	// through the major slot (Major).
	Kind Kind
	// Dis is the mini-node's disambiguator; meaningful only when Kind==Mini.
	Dis Dis
}

// M returns a Mini element with bit b and disambiguator d.
func M(b uint8, d Dis) Elem { return Elem{Bit: b, Kind: Mini, Dis: d} }

// J returns a Major ("jump-through") element with bit b.
func J(b uint8) Elem { return Elem{Bit: b, Kind: Major} }

// Path is a Treedoc position identifier (PosID): the walk from the document
// root to an atom's mini-node. The empty path denotes the root major node,
// which holds no atoms; every atom identifier is non-empty and ends with a
// Mini element.
type Path []Elem

// Len returns the tree depth of the identifier (number of elements).
func (p Path) Len() int { return len(p) }

// IsRoot reports whether p is the empty path (the document root).
func (p Path) IsRoot() bool { return len(p) == 0 }

// Last returns the final element. It panics on the empty path; callers
// validate atom identifiers with Validate first.
func (p Path) Last() Elem { return p[len(p)-1] }

// Clone returns an independent copy of p.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Child returns a new path extending p with element e. The result never
// aliases p's backing array, so it is safe to extend one path two ways.
func (p Path) Child(e Elem) Path {
	q := make(Path, len(p)+1)
	copy(q, p)
	q[len(p)] = e
	return q
}

// StripLastDis returns p with its final element demoted to a Major element
// (the "c1…pn" form used by Algorithm 1: the bits of the final element are
// kept, the disambiguator dropped). It panics on the empty path.
func (p Path) StripLastDis() Path {
	q := p.Clone()
	q[len(q)-1] = J(q[len(q)-1].Bit)
	return q
}

// Equal reports whether p and q are element-wise identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// HasPrefix reports whether q is an element-wise prefix of p (including
// p.Equal(q)).
func (p Path) HasPrefix(q Path) bool {
	if len(q) > len(p) {
		return false
	}
	for i := range q {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Validate checks that p is a well-formed atom identifier: non-empty, every
// bit is 0 or 1, every element kind is Major or Mini, and the final element
// is a Mini (atoms live in mini-nodes).
func (p Path) Validate() error {
	return p.ValidateFrom(0)
}

// ValidateFrom is Validate for a path whose first skip elements are already
// known well-formed — typically because they matched a previously validated
// identifier elementwise (the doctree walk cache). Only the remaining
// elements are checked, which keeps validation O(suffix) on cache-resumed
// walks instead of O(depth) per operation.
func (p Path) ValidateFrom(skip int) error {
	if len(p) == 0 {
		return fmt.Errorf("ident: empty path is not an atom identifier")
	}
	for i := skip; i < len(p); i++ {
		e := p[i]
		if e.Bit > 1 {
			return fmt.Errorf("ident: element %d has bit %d (want 0 or 1)", i, e.Bit)
		}
		switch e.Kind {
		case Major:
		case Mini:
			// The tree stores a site in 48 bits; a wider one would alias
			// another site's disambiguator there.
			if e.Dis.Site > MaxSiteID {
				return fmt.Errorf("ident: element %d has site %d beyond 2^48-1", i, e.Dis.Site)
			}
		default:
			return fmt.Errorf("ident: element %d has invalid kind %d", i, e.Kind)
		}
	}
	if p.Last().Kind != Mini {
		return fmt.Errorf("ident: atom identifier must end with a mini-node element")
	}
	return nil
}

// ValidateStructural checks that p is a well-formed structural path — one
// designating a major node rather than an atom: the empty path (the root)
// or a path of valid elements whose final element is a Major. Flatten
// operations and subtree regions are addressed this way.
func (p Path) ValidateStructural() error {
	for i, e := range p {
		if e.Bit > 1 {
			return fmt.Errorf("ident: element %d has bit %d (want 0 or 1)", i, e.Bit)
		}
		switch e.Kind {
		case Major:
		case Mini:
			// The tree stores a site in 48 bits; a wider one would alias
			// another site's disambiguator there.
			if e.Dis.Site > MaxSiteID {
				return fmt.Errorf("ident: element %d has site %d beyond 2^48-1", i, e.Dis.Site)
			}
		default:
			return fmt.Errorf("ident: element %d has invalid kind %d", i, e.Kind)
		}
	}
	if len(p) > 0 && p.Last().Kind != Major {
		return fmt.Errorf("ident: structural path must end with a major element")
	}
	return nil
}

// String renders the path in the paper's notation, e.g. "[10(0:s2)]" for
// bits 1,0 followed by a mini element with bit 0 and disambiguator site 2.
// Major elements print as bare bits; Mini elements as "(bit:dis)".
func (p Path) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for _, e := range p {
		if e.Kind == Mini {
			fmt.Fprintf(&b, "(%d:%s)", e.Bit, e.Dis)
		} else {
			b.WriteByte('0' + e.Bit)
		}
	}
	b.WriteByte(']')
	return b.String()
}

// elemClass positions an element among its node's contents for ordering.
// Within one tree node reached by bit b, the infix walk visits: the node's
// major-left subtree, then its mini-nodes in disambiguator order (each with
// its own subtrees), then its major-right subtree. A Major element therefore
// ranks by the direction of the *next* step, while a Mini element ranks by
// its disambiguator between the two.
const (
	classLeft  = 0 // Major element whose next step descends left
	classMini  = 1 // Mini element (ordered by disambiguator)
	classRight = 2 // Major element whose next step descends right
)

func class(p Path, i int) int {
	e := p[i]
	if e.Kind == Mini {
		return classMini
	}
	if i+1 < len(p) && p[i+1].Bit == 1 {
		return classRight
	}
	if i+1 < len(p) {
		return classLeft
	}
	// A final Major element denotes the major slot itself; it only occurs in
	// structural (non-atom) paths. Rank it like the canonical mini so the
	// order stays total; the kind tiebreak below distinguishes it from a
	// genuine canonical mini.
	return classMini
}

// Compare implements the strict total order over position identifiers,
// consistent with the infix walk of the extended tree (Section 3.1, with a
// Major element ranked by the direction of its next step, see elemClass).
// It returns -1 if p < q, 0 if p == q, +1 if p > q.
func Compare(p, q Path) int { return CompareFrom(p, q, 0) }

// CompareFrom is Compare for a caller that already knows p[:skip] ==
// q[:skip] element for element (skip <= both lengths): the scan starts at
// element skip. A walk that carries its position down the tree compares an
// identifier against each node it visits this way, paying for the one or
// two elements that can differ instead of the whole shared prefix.
func CompareFrom(p, q Path, skip int) int {
	n := min(len(p), len(q))
	for i := skip; i < n; i++ {
		pe, qe := p[i], q[i]
		if pe == qe {
			continue
		}
		if pe.Bit != qe.Bit {
			if pe.Bit < qe.Bit {
				return -1
			}
			return +1
		}
		pc, qc := class(p, i), class(q, i)
		if pc != qc {
			if pc < qc {
				return -1
			}
			return +1
		}
		if pc == classMini {
			// Same bit, both rank as minis: order by disambiguator, then
			// prefer the Major (structural) form as the smaller so the order
			// stays total on structural paths too.
			pd, qd := Dis{}, Dis{}
			if pe.Kind == Mini {
				pd = pe.Dis
			}
			if qe.Kind == Mini {
				qd = qe.Dis
			}
			if c := pd.Compare(qd); c != 0 {
				return c
			}
			if pe.Kind != qe.Kind {
				if pe.Kind == Major {
					return -1
				}
				return +1
			}
			// Same bit, kind, and dis but unequal elements is impossible.
		}
		// Same bit and class but different kinds cannot happen outside the
		// classMini branch: Left/Right classes are Major-only.
	}
	switch {
	case len(p) == len(q):
		return 0
	case len(p) < len(q):
		// p is a proper prefix: p's atom sits between its mini-node's left
		// and right subtrees, so q's continuation bit decides.
		if q[len(p)].Bit == 0 {
			return +1
		}
		return -1
	default:
		if p[len(q)].Bit == 0 {
			return -1
		}
		return +1
	}
}

// Less reports whether p sorts strictly before q.
func Less(p, q Path) bool { return Compare(p, q) < 0 }

// Between reports whether p < n < f, treating a nil p as the start of the
// document (-∞) and a nil f as the end (+∞).
func Between(p, n, f Path) bool {
	if p != nil && Compare(p, n) >= 0 {
		return false
	}
	if f != nil && Compare(n, f) >= 0 {
		return false
	}
	return true
}

// Bits returns the identifier's size in bits under cost model c: one bit per
// element plus the disambiguator cost of each Mini element (Section 5:
// canonical disambiguators are free, so compacted paths are pure bitstrings).
func (p Path) Bits(c Cost) int {
	bits := len(p)
	for _, e := range p {
		if e.Kind == Mini {
			bits += c.Bits(e.Dis)
		}
	}
	return bits
}
