// Package vclock implements vector clocks for tracking the happened-before
// relation of Lamport, which the Treedoc paper adopts verbatim: "Our
// happened-before and concurrency relations are identical to the formal
// definition of Lamport" (Section 1, footnote 1). The causal delivery layer
// (internal/causal) and the flatten round (internal/transport/flatten.go)
// build on these clocks.
package vclock

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"github.com/treedoc/treedoc/internal/ident"
)

// VC is a vector clock: per-site counts of known operations. The zero value
// (nil) is a valid empty clock.
type VC map[ident.SiteID]uint64

// Relation is the outcome of comparing two vector clocks.
type Relation int

const (
	// Equal means both clocks describe the same causal history.
	Equal Relation = iota
	// Before means the receiver happened-before the argument.
	Before
	// After means the argument happened-before the receiver.
	After
	// Concurrent means neither dominates: the histories are concurrent.
	Concurrent
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// New returns an empty clock.
func New() VC { return make(VC) }

// Get returns the count for site s (zero when absent).
func (v VC) Get(s ident.SiteID) uint64 { return v[s] }

// Tick increments site s's entry and returns the new value.
func (v VC) Tick(s ident.SiteID) uint64 {
	v[s]++
	return v[s]
}

// Clone returns an independent copy.
func (v VC) Clone() VC {
	out := make(VC, len(v))
	for s, n := range v {
		out[s] = n
	}
	return out
}

// IsTick reports whether v is exactly o with site s's entry one higher: the
// clock of s's next message when s delivered nothing in between.
func (v VC) IsTick(o VC, s ident.SiteID) bool {
	if len(v) != len(o) || v[s] != o[s]+1 {
		return false
	}
	for t, n := range o {
		if m, ok := v[t]; !ok || m != n && t != s {
			return false
		}
	}
	return true
}

// Ticked returns a copy of v with site s's entry one higher, the clock
// IsTick recognises. A writer's burst carries one-entry clocks, which are
// built without iterating: decoding a 64-op frame of them is a tenth faster
// for it (BenchmarkOpsFrameCodec/decode).
func (v VC) Ticked(s ident.SiteID) VC {
	if n, ok := v[s]; ok && len(v) == 1 {
		return VC{s: n + 1}
	}
	out := v.Clone()
	out[s]++
	return out
}

// Merge folds o into v entry-wise (pointwise maximum).
func (v VC) Merge(o VC) {
	for s, n := range o {
		if n > v[s] {
			v[s] = n
		}
	}
}

// Dominates reports whether v ≥ o entry-wise: every operation known to o is
// known to v.
func (v VC) Dominates(o VC) bool {
	for s, n := range o {
		if v[s] < n {
			return false
		}
	}
	return true
}

// Compare classifies the causal relation between v and o.
func (v VC) Compare(o VC) Relation {
	vDom, oDom := v.Dominates(o), o.Dominates(v)
	switch {
	case vDom && oDom:
		return Equal
	case oDom:
		return Before
	case vDom:
		return After
	default:
		return Concurrent
	}
}

// String renders the clock deterministically (sites in ascending order).
func (v VC) String() string {
	sites := make([]ident.SiteID, 0, len(v))
	for s := range v {
		sites = append(sites, s)
	}
	slices.Sort(sites)
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range sites {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "s%d:%d", s, v[s])
	}
	b.WriteByte('}')
	return b.String()
}

// AppendBinary appends the canonical encoding of v: a uvarint entry
// count, then (site, count) uvarint pairs with sites ascending, zero
// entries omitted. The same layout is shared by the transport wire
// format, the oplog snapshot header, and the document snapshot format.
//
//treedoc:noalloc
func (v VC) AppendBinary(dst []byte) []byte {
	// The site list lives on the stack and is sorted without sort.Slice:
	// this encoder runs once per op in every frame and oplog record, and
	// the slice-plus-closure pair it used to allocate was the last per-op
	// heap cost of the encode path. Clocks bigger than the stack buffer
	// (rare: that many sites in one document) fall back to the heap.
	var stack [16]ident.SiteID
	sites := stack[:0]
	for s, n := range v {
		if n > 0 {
			sites = append(sites, s)
		}
	}
	slices.Sort(sites)
	dst = binary.AppendUvarint(dst, uint64(len(sites)))
	for _, s := range sites {
		dst = binary.AppendUvarint(dst, uint64(s))
		dst = binary.AppendUvarint(dst, v[s])
	}
	return dst
}

// DecodeBinary decodes a clock from the front of buf, returning the bytes
// consumed. Entries are validated (site in range and non-zero count) and
// the entry count is bounded by maxEntries and by the remaining buffer,
// so a hostile count cannot force a large allocation.
func DecodeBinary(buf []byte, maxEntries int) (VC, int, error) {
	n, off := binary.Uvarint(buf)
	if off <= 0 {
		return nil, 0, fmt.Errorf("vclock: truncated clock size")
	}
	if maxEntries >= 0 && n > uint64(maxEntries) {
		return nil, 0, fmt.Errorf("vclock: clock with %d entries exceeds limit", n)
	}
	// Each entry costs at least two bytes; bound before allocating.
	if n > uint64(len(buf)-off) {
		return nil, 0, fmt.Errorf("vclock: clock entry count %d exceeds buffer", n)
	}
	vc := make(VC, n)
	for i := uint64(0); i < n; i++ {
		site, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("vclock: truncated clock site")
		}
		off += k
		if site == 0 || ident.SiteID(site) > ident.MaxSiteID {
			return nil, 0, fmt.Errorf("vclock: clock site %d out of range", site)
		}
		count, k := binary.Uvarint(buf[off:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("vclock: truncated clock count")
		}
		off += k
		if count == 0 {
			return nil, 0, fmt.Errorf("vclock: zero clock entry for site %d", site)
		}
		vc[ident.SiteID(site)] = count
	}
	return vc, off, nil
}
