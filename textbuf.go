package treedoc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"unicode/utf8"
)

// ErrOutOfRange reports a splice or slice whose offsets fall outside the
// buffer. Concurrent editors hit it benignly: between reading Len and
// calling Splice, a remote delete applied by a replication engine may have
// shrunk the buffer. Detect it with errors.Is and retry with fresh
// offsets.
var ErrOutOfRange = errors.New("treedoc: offset out of range")

// TextBuffer adapts a Treedoc replica to the interface of a text editor
// buffer: rune-offset splices over a flat string, with one atom per rune.
// It is the paper's stated next step — "implementing Treedoc within an
// existing text editor" (Section 7) — packaged as a library layer: an
// editor calls Splice for every keystroke or paste, ships the returned
// operations, and applies remote operations as they arrive.
//
// All methods are safe for concurrent use.
type TextBuffer struct {
	mu  sync.Mutex
	doc *Doc // guarded by mu
}

// NewTextBuffer creates an empty character-granularity replica.
func NewTextBuffer(opts ...Option) (*TextBuffer, error) {
	d, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return &TextBuffer{doc: d}, nil
}

// Len returns the buffer length in runes.
func (b *TextBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Len()
}

// String returns the buffer contents.
func (b *TextBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.text()
}

//treedoc:holds mu
func (b *TextBuffer) text() string {
	var sb strings.Builder
	for _, a := range b.doc.Content() {
		sb.WriteString(a)
	}
	return sb.String()
}

// Splice is the editor entry point: at rune offset off, delete delCount
// runes and insert text. It returns the operations to broadcast — deletes
// first, then inserts, matching the local execution order so remote
// replicas can replay them in sequence.
func (b *TextBuffer) Splice(off, delCount int, text string) ([]Op, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.splice(off, delCount, text)
}

// splice implements Splice with b.mu held. The deletes and the insert are
// applied as one atomic edit on the underlying Doc, so a flatten vote
// locking the region either rejects the whole splice (ErrRegionLocked) or
// none of it.
//
//treedoc:holds mu
func (b *TextBuffer) splice(off, delCount int, text string) ([]Op, error) {
	n := b.doc.Len()
	if off < 0 || off > n {
		return nil, fmt.Errorf("treedoc: splice offset %d outside [0,%d]: %w", off, n, ErrOutOfRange)
	}
	if delCount < 0 || off+delCount > n {
		return nil, fmt.Errorf("treedoc: splice delete %d at offset %d (len %d): %w", delCount, off, n, ErrOutOfRange)
	}
	var atoms []string
	if text != "" {
		// Each rune's atom is a substring of the spliced text, so typing
		// costs no per-character heap allocation, and the rune count is
		// taken without materialising a []rune copy of the text.
		atoms = make([]string, 0, utf8.RuneCountInString(text))
		for i, r := range text {
			if r == utf8.RuneError { // an invalid byte, or the replacement character itself
				atoms = append(atoms, "\uFFFD")
			} else {
				atoms = append(atoms, text[i:i+utf8.RuneLen(r)])
			}
		}
	}
	return b.doc.spliceOps(off, delCount, atoms)
}

// Insert inserts text at rune offset off.
func (b *TextBuffer) Insert(off int, text string) ([]Op, error) {
	return b.Splice(off, 0, text)
}

// Delete removes count runes at offset off.
func (b *TextBuffer) Delete(off, count int) ([]Op, error) {
	return b.Splice(off, count, "")
}

// Append adds text at the end of the buffer. The length is read and the
// splice performed under one lock, so Append cannot race a concurrent
// remote delete into ErrOutOfRange.
func (b *TextBuffer) Append(text string) ([]Op, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.splice(b.doc.Len(), 0, text)
}

// Apply replays a remote operation.
func (b *TextBuffer) Apply(op Op) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Apply(op)
}

// ApplyAll replays remote operations in order (see ApplyBatch).
func (b *TextBuffer) ApplyAll(ops []Op) error {
	_, err := b.ApplyBatch(ops)
	return err
}

// ApplyBatch replays remote operations in order under one lock, returning
// how many applied before the first failure (see Doc.ApplyBatch); it is
// the replication engine's one apply path.
func (b *TextBuffer) ApplyBatch(ops []Op) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.ApplyBatch(ops)
}

// Slice returns the text of the rune range [from, to). It streams the
// range in one in-order tree walk (O(height + to - from)); looking each
// atom up by index would re-descend from the root per rune and make long
// slices quadratic.
func (b *TextBuffer) Slice(from, to int) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.doc.Len()
	if from < 0 || to < from || to > n {
		return "", fmt.Errorf("treedoc: slice [%d,%d) outside [0,%d]: %w", from, to, n, ErrOutOfRange)
	}
	var sb strings.Builder
	sb.Grow(to - from) // at least one byte per atom
	if err := b.doc.VisitRange(from, to, func(a string) bool {
		sb.WriteString(a)
		return true
	}); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Compact flattens the buffer to a zero-overhead array. Single-replica (or
// externally coordinated) use only, as with Doc.Flatten.
func (b *TextBuffer) Compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Flatten()
}

// Stats measures the replica's overheads.
func (b *TextBuffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Stats()
}

// Snapshot captures the buffer state and its version vector atomically,
// for compaction barriers and snapshot catch-up (see Doc.Snapshot).
func (b *TextBuffer) Snapshot() ([]byte, Version, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Snapshot()
}

// InstallSnapshot replaces the buffer state with a snapshot whose version
// dominates the buffer's own (see Doc.InstallSnapshot).
func (b *TextBuffer) InstallSnapshot(data []byte) (Version, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.InstallSnapshot(data)
}

// Version returns the buffer's applied version vector (see Doc.Version).
func (b *TextBuffer) Version() Version {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Version()
}

// FlattenOp executes a committed flatten as a local operation (see
// Doc.FlattenOp); only a flatten commitment coordinator may call it.
func (b *TextBuffer) FlattenOp(path Path, afterSeq uint64) (Op, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.FlattenOp(path, afterSeq)
}

// ColdestSubtree returns the best cold flatten candidate (see
// Doc.ColdestSubtree).
func (b *TextBuffer) ColdestSubtree(revisions int64, minNodes int) Path {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.ColdestSubtree(revisions, minNodes)
}

// EndRevision advances the revision clock driving the cold-subtree
// heuristics (see Doc.EndRevision).
func (b *TextBuffer) EndRevision() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.doc.EndRevision()
}

// LockRegion freezes a subtree against local edits during a flatten
// commitment vote (see Doc.LockRegion); the replication engine calls it.
// Taking the buffer lock first means a freeze can never land in the middle
// of a concurrent Splice.
func (b *TextBuffer) LockRegion(token uint64, path Path) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.doc.LockRegion(token, path)
}

// UnlockRegion releases a LockRegion freeze.
func (b *TextBuffer) UnlockRegion(token uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.doc.UnlockRegion(token)
}

// Doc exposes the underlying document replica (e.g. for snapshots).
//
//treedoc:unguarded the pointer is set at construction and never reassigned
func (b *TextBuffer) Doc() *Doc { return b.doc }
