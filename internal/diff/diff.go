// Package diff computes line/atom-level edit scripts between document
// revisions, reproducing the paper's replay pipeline: "for each revision,
// we compute the differences from the previous version, and execute an
// equivalent sequence of insert and delete operations" (Section 5).
// Modifying an atom appears as a delete plus an insert, exactly as the
// paper models it.
//
// The algorithm is Myers' O(ND) greedy shortest edit script.
package diff

import "fmt"

// Kind is an edit script operation type.
type Kind uint8

const (
	// Delete removes the atom at Index.
	Delete Kind = iota + 1
	// Insert places Atom at Index.
	Insert
)

// Op is one step of an edit script. Ops apply sequentially to the evolving
// document: indices refer to the document state after all preceding ops.
type Op struct {
	Kind  Kind   `json:"k"`
	Index int    `json:"i"`
	Atom  string `json:"a,omitempty"`
}

// String renders the op.
func (o Op) String() string {
	if o.Kind == Insert {
		return fmt.Sprintf("+%d%q", o.Index, o.Atom)
	}
	return fmt.Sprintf("-%d", o.Index)
}

// Atoms computes a shortest edit script transforming a into b.
func Atoms(a, b []string) []Op {
	// Trim common prefix and suffix first: revision diffs are usually local.
	pre := 0
	for pre < len(a) && pre < len(b) && a[pre] == b[pre] {
		pre++
	}
	suf := 0
	for suf < len(a)-pre && suf < len(b)-pre && a[len(a)-1-suf] == b[len(b)-1-suf] {
		suf++
	}
	ca, cb := a[pre:len(a)-suf], b[pre:len(b)-suf]
	script := myers(ca, cb)
	// Rebase onto the untrimmed coordinates.
	out := make([]Op, len(script))
	for i, op := range script {
		op.Index += pre
		out[i] = op
	}
	return out
}

// myers runs the O(ND) algorithm, returning the script in sequential-apply
// form.
func myers(a, b []string) []Op {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	max := n + m
	// v[k] = furthest x on diagonal k; store a copy per step for backtrack.
	offset := max
	v := make([]int, 2*max+1)
	var trace [][]int
	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[offset+k-1] < v[offset+k+1]) {
				x = v[offset+k+1] // down: insert from b
			} else {
				x = v[offset+k-1] + 1 // right: delete from a
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[offset+k] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}
	// Backtrack from (n, m) to (0, 0) collecting reverse-order raw edits.
	type raw struct {
		del  bool
		x, y int // position in a (del) or target position pair (ins)
	}
	var rev []raw
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vprev := trace[d]
		k := x - y
		var pk int
		if k == -d || (k != d && vprev[offset+k-1] < vprev[offset+k+1]) {
			pk = k + 1 // came from an insert
		} else {
			pk = k - 1 // came from a delete
		}
		px := vprev[offset+pk]
		py := px - pk
		// Walk back the snake.
		for x > px && y > py {
			x--
			y--
		}
		if pk == k+1 {
			// Insert of b[py] at position (px in a / py in b).
			rev = append(rev, raw{del: false, x: px, y: py})
			y = py
			x = px
		} else {
			rev = append(rev, raw{del: true, x: px, y: py})
			x = px
			y = py
		}
	}
	// Convert to forward order with sequential indices. Process raw edits in
	// forward order (reverse of rev); maintain the shift between a-indices
	// and current-document indices.
	ops := make([]Op, 0, len(rev))
	shift := 0
	for i := len(rev) - 1; i >= 0; i-- {
		r := rev[i]
		if r.del {
			ops = append(ops, Op{Kind: Delete, Index: r.x + shift})
			shift--
		} else {
			ops = append(ops, Op{Kind: Insert, Index: r.x + shift, Atom: b[r.y]})
			shift++
		}
	}
	return ops
}

// Apply executes a script against a document, returning the result. It is
// the reference executor used by tests; a replayer that applies one script
// after another keeps a Buffer across them instead.
func Apply(a []string, script []Op) ([]string, error) {
	b := NewBuffer(a)
	if err := b.Apply(script); err != nil {
		return nil, err
	}
	return b.Atoms(), nil
}

// Buffer is a document under a sequence of edit scripts: a gap buffer, so an
// op costs the distance from the op before it, not the length of the
// document. Revision histories edit in a few hot spots, and the gap stays
// where the last op left it.
type Buffer struct {
	buf      []string // the atoms before the gap, the gap, the atoms after it
	gap, end int      // buf[gap:end] is the gap
}

// NewBuffer returns a buffer holding a copy of the atoms of a.
func NewBuffer(a []string) *Buffer {
	return &Buffer{buf: append([]string(nil), a...), gap: len(a), end: len(a)}
}

// Len returns the number of atoms in the document.
func (b *Buffer) Len() int { return len(b.buf) - (b.end - b.gap) }

// Atoms returns the document as a fresh slice.
func (b *Buffer) Atoms() []string { return b.AppendRange(make([]string, 0, b.Len()), 0, b.Len()) }

// AppendRange appends the atoms at indices [from, to) to dst.
func (b *Buffer) AppendRange(dst []string, from, to int) []string {
	if from < b.gap {
		dst = append(dst, b.buf[from:min(to, b.gap)]...)
	}
	if to > b.gap {
		dst = append(dst, b.buf[max(from, b.gap)+b.end-b.gap:to+b.end-b.gap]...)
	}
	return dst
}

// seek moves the gap to document index i.
func (b *Buffer) seek(i int) {
	if n := b.gap - i; n > 0 {
		copy(b.buf[b.end-n:b.end], b.buf[i:b.gap])
		b.gap, b.end = i, b.end-n
	} else if n < 0 {
		copy(b.buf[b.gap:], b.buf[b.end:b.end-n])
		b.gap, b.end = i, b.end-n
	}
}

// Apply executes a script against the document. A script that fails leaves
// the ops before the failing one applied.
func (b *Buffer) Apply(script []Op) error {
	for i, op := range script {
		switch op.Kind {
		case Delete:
			if op.Index < 0 || op.Index >= b.Len() {
				return fmt.Errorf("diff: op %d: delete index %d out of range [0,%d)", i, op.Index, b.Len())
			}
			b.seek(op.Index)
			b.buf[b.end] = "" // the gap must not pin a deleted atom
			b.end++
		case Insert:
			if op.Index < 0 || op.Index > b.Len() {
				return fmt.Errorf("diff: op %d: insert index %d out of range [0,%d]", i, op.Index, b.Len())
			}
			b.seek(op.Index)
			if b.gap == b.end {
				// Reopen the gap at double the size, where it is.
				grown := make([]string, 2*len(b.buf)+16)
				copy(grown, b.buf[:b.gap])
				b.end = len(grown) - copy(grown[len(grown)-(len(b.buf)-b.end):], b.buf[b.end:])
				b.buf = grown
			}
			b.buf[b.gap] = op.Atom
			b.gap++
		default:
			return fmt.Errorf("diff: op %d: invalid kind %d", i, op.Kind)
		}
	}
	return nil
}
