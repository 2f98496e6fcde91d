// Package core implements the Treedoc commutative replicated data type: the
// shared edit buffer of the ICDCS 2009 paper (Sections 2–4). A Document is
// one replica's state; local edits produce operations that commute with all
// concurrent operations, so replicas that replay each other's operations in
// happened-before order converge without further concurrency control.
//
// The package builds on internal/ident (the dense identifier space) and
// internal/doctree (the extended binary tree). Distribution — causal
// delivery and the flatten round — lives in internal/causal, internal/simnet
// and internal/transport (flatten.go); the public treedoc package ties them
// together.
package core

import (
	"encoding/binary"
	"fmt"

	"github.com/treedoc/treedoc/internal/ident"
)

// OpKind identifies an edit operation type (Section 2.2).
type OpKind uint8

const (
	// OpInsert inserts an atom at a fresh position identifier.
	OpInsert OpKind = iota + 1
	// OpDelete removes the atom with a given position identifier. Delete is
	// idempotent and commutes with every concurrent operation.
	OpDelete
	// OpFlatten rewrites the subtree at a structural path as a flat atom
	// array (Section 4.2's flatten). Unlike insert and delete it does NOT
	// commute with concurrent edits of its region: its author mints it only
	// once every member has applied the round's intent and the author holds
	// every edit of the region made before (internal/transport/flatten.go).
	// As a stamped operation it is in the causal stream, so every replica
	// applies it before any operation issued after it — post-flatten edits
	// reference post-flatten identifiers, and causal delivery guarantees
	// the rename has happened first. Applying it ends its author's round at
	// the region.
	OpFlatten
	// OpIntent opens a flatten round at a structural path: a replica that
	// applies it refuses local edits of the region until the round's
	// OpFlatten or OpAbort, which name it by author and path, is applied.
	OpIntent
	// OpAbort ends its author's round at the region without flattening.
	OpAbort
)

// onPath reports whether the kind's identifier is a structural path, as a
// flatten round's operations name their region, rather than an atom's.
func (k OpKind) onPath() bool { return k >= OpFlatten }

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpFlatten:
		return "flatten"
	case OpIntent:
		return "intent"
	case OpAbort:
		return "abort"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one Treedoc edit operation, the unit of replication. Site and Seq
// identify the originating replica and its local operation sequence number;
// the causal delivery layer uses them for happened-before ordering and
// duplicate suppression.
type Op struct {
	Kind OpKind
	// ID is the identifier in its packed form, the bytes the wire carries;
	// ID.AppendPath expands it into elements.
	ID   ident.Packed
	Atom string // insert only
	Site ident.SiteID
	Seq  uint64
}

// Validate checks the operation's shape: a known kind, an identifier of
// that kind's shape — an atom identifier for an insert or a delete, a
// structural path (empty = the whole document) for a flatten round's
// operations — and an atom only on an insert. The identifier's encoding
// needs no check: a non-zero Packed was checked where it was made.
func (o Op) Validate() error {
	switch {
	case o.Kind < OpInsert || o.Kind > OpAbort:
		return fmt.Errorf("core: invalid op kind %d", o.Kind)
	case o.ID == ident.Packed{}:
		return fmt.Errorf("core: %s op has no identifier", o.Kind)
	case o.ID.IsAtom() == o.Kind.onPath():
		return fmt.Errorf("core: invalid %s id %v", o.Kind, o.ID)
	case o.Kind != OpInsert && o.Atom != "":
		return fmt.Errorf("core: %s op carries an atom", o.Kind)
	}
	return nil
}

// NetworkBits returns the operation's network cost in bits under the
// paper's model (Section 5.2): "the network cost of an edit operation is
// sending a PosID and, when inserting, the corresponding atom".
func (o Op) NetworkBits(c ident.Cost) int {
	bits := o.ID.Bits(c)
	if o.Kind == OpInsert {
		bits += 8 * len(o.Atom)
	}
	return bits
}

// String renders the op for logs and test failures.
func (o Op) String() string {
	if o.Kind == OpInsert {
		return fmt.Sprintf("insert%v %q by s%d#%d", o.ID, o.Atom, o.Site, o.Seq)
	}
	return fmt.Sprintf("%s%v by s%d#%d", o.Kind, o.ID, o.Site, o.Seq)
}

// An encoded operation opens with a head byte: its kind in bits 0–1 and 4,
// so that insert, delete and flatten are 1–3 and intent and abort 0x10 and
// 0x11. Inside a stamped message (internal/transport's kindOps frames and
// log records) two more bits elide what the message already says; a
// standalone operation leaves them clear.
const (
	// HeadKind masks the kind's bits.
	HeadKind = 3 | 1<<4
	// HeadRun: same sender as the previous message of the frame, and its
	// clock with the sender's entry one higher; both are omitted and the
	// decoder clones and ticks.
	HeadRun = 1 << 2
	// HeadStamped: Site and Seq are the message's sender and own stamp, and
	// are omitted.
	HeadStamped = 1 << 3
)

// Head returns the kind's bits of a head byte.
func (k OpKind) Head() byte { return byte(k&3 | k>>2<<4) }

// KindOf returns the kind a head byte's kind bits name.
func KindOf(head byte) OpKind { return OpKind(head&3 | head>>4&1<<2) }

// AppendBinary appends the wire encoding of o to dst: the head byte, then
// the fields with the origin (see AppendFields).
//
//treedoc:noalloc
func (o Op) AppendBinary(dst []byte) []byte {
	return o.AppendFields(append(dst, o.Kind.Head()), true)
}

// AppendFields appends what follows an operation's head byte: uvarint site
// and seq when origin is set, the packed identifier, and for inserts a
// uvarint-length-prefixed atom. A stamped message whose sender and stamp
// already say who issued the operation leaves the origin out.
//
//treedoc:noalloc
func (o Op) AppendFields(dst []byte, origin bool) []byte {
	if origin {
		dst = binary.AppendUvarint(dst, uint64(o.Site))
		dst = binary.AppendUvarint(dst, o.Seq)
	}
	dst = o.ID.AppendBinary(dst)
	if o.Kind == OpInsert {
		dst = binary.AppendUvarint(dst, uint64(len(o.Atom)))
		dst = append(dst, o.Atom...)
	}
	return dst
}

// MarshalBinary encodes o in the wire format.
func (o Op) MarshalBinary() ([]byte, error) { return o.AppendBinary(nil), nil }

// DecodeOp decodes one operation from the front of buf, returning the
// number of bytes consumed.
func DecodeOp(buf []byte) (Op, int, error) {
	if len(buf) == 0 {
		return Op{}, 0, fmt.Errorf("core: empty op buffer")
	}
	if buf[0]&^HeadKind != 0 {
		return Op{}, 0, fmt.Errorf("core: op head %#x", buf[0])
	}
	o, n, err := DecodeFields(KindOf(buf[0]), true, buf[1:])
	if err != nil {
		return o, 0, err
	}
	return o, n + 1, nil
}

// DecodeFields decodes what AppendFields wrote for an operation of the
// given kind from the front of buf, returning the number of bytes consumed.
// Without origin the operation's Site and Seq are left zero for the caller
// to fill.
func DecodeFields(kind OpKind, origin bool, buf []byte) (Op, int, error) {
	o := Op{Kind: kind}
	off := 0
	if origin {
		site, n := binary.Uvarint(buf)
		if n <= 0 {
			return o, 0, fmt.Errorf("core: truncated op site")
		}
		off += n
		if ident.SiteID(site) > ident.MaxSiteID {
			return o, 0, fmt.Errorf("core: op site %d exceeds 48 bits", site)
		}
		o.Site = ident.SiteID(site)
		seq, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return o, 0, fmt.Errorf("core: truncated op seq")
		}
		off += n
		o.Seq = seq
	}
	id, n, err := ident.DecodePacked(buf[off:])
	if err != nil {
		return o, 0, fmt.Errorf("core: op id: %w", err)
	}
	off += n
	o.ID = id
	if o.Kind == OpInsert {
		alen, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return o, 0, fmt.Errorf("core: truncated atom length")
		}
		off += n
		if alen > uint64(len(buf)-off) {
			return o, 0, fmt.Errorf("core: atom length %d exceeds buffer", alen)
		}
		// Character-granularity documents make almost every decoded atom a
		// single byte, and the runtime converts a one-byte slice to its
		// static single-byte string: a replayed insert allocates no atom.
		o.Atom = string(buf[off : off+int(alen)])
		off += int(alen)
	}
	if err := o.Validate(); err != nil {
		return o, 0, err
	}
	return o, off, nil
}

// UnmarshalBinary decodes o from data, requiring full consumption.
func (o *Op) UnmarshalBinary(data []byte) error {
	dec, n, err := DecodeOp(data)
	if err != nil {
		return err
	}
	if n != len(data) {
		return fmt.Errorf("core: %d trailing bytes after op", len(data)-n)
	}
	*o = dec
	return nil
}
