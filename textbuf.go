package treedoc

import (
	"errors"
	"fmt"
	"unicode/utf8"
)

// ErrOutOfRange reports a splice or slice whose offsets fall outside the
// buffer. Concurrent editors hit it benignly: between reading Len and
// calling Splice, a remote delete applied by a replication engine may have
// shrunk the buffer. Detect it with errors.Is and retry with fresh
// offsets.
var ErrOutOfRange = errors.New("treedoc: offset out of range")

// TextBuffer is a Doc whose atoms are runes: the interface of a text
// editor buffer, rune-offset splices over a flat string. It is the paper's
// stated next step — "implementing Treedoc within an existing text editor"
// (Section 7) — packaged as a library layer: an editor calls Splice for
// every keystroke or paste, ships the returned operations, and applies
// remote operations as they arrive. Everything but the rune-level edits
// and reads below is the Doc's own: Len counts runes, and Apply, snapshots,
// flatten and region locks are unchanged.
//
// All methods are safe for concurrent use: each takes the Doc's one lock.
type TextBuffer struct{ *Doc }

// NewTextBuffer creates an empty character-granularity replica.
func NewTextBuffer(opts ...Option) (*TextBuffer, error) {
	d, err := New(opts...)
	if err != nil {
		return nil, err
	}
	return &TextBuffer{d}, nil
}

// String returns the buffer contents.
func (b *TextBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.doc.Text(0, b.doc.Len(), "")
}

// Splice is the editor entry point: at rune offset off, delete delCount
// runes and insert text. It returns the operations to broadcast — deletes
// first, then inserts, matching the local execution order so remote
// replicas can replay them in sequence. The edit is atomic: a flatten
// round locking the region rejects the whole splice (ErrRegionLocked) or
// none of it.
func (b *TextBuffer) Splice(off, delCount int, text string) ([]Op, error) {
	atoms := runes(text)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.splice(off, delCount, atoms)
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
	atoms := runes(text)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.splice(b.doc.Len(), 0, atoms)
}

// splice checks a splice's rune offsets against the length it is applied
// at, so a remote delete that shrank the buffer surfaces as ErrOutOfRange.
//
//treedoc:holds mu
func (b *TextBuffer) splice(off, delCount int, atoms []string) ([]Op, error) {
	n := b.doc.Len()
	if off < 0 || off > n {
		return nil, fmt.Errorf("treedoc: splice offset %d outside [0,%d]: %w", off, n, ErrOutOfRange)
	}
	if delCount < 0 || off+delCount > n {
		return nil, fmt.Errorf("treedoc: splice delete %d at offset %d (len %d): %w", delCount, off, n, ErrOutOfRange)
	}
	ops, err := b.doc.Splice(off, delCount, atoms)
	if err != nil {
		return nil, fmt.Errorf("treedoc: splice at %d: %w", off, err)
	}
	return ops, nil
}

// runes splits text into one atom per rune. Each atom is a substring of
// the text, so typing costs no per-character heap allocation, and the rune
// count is taken without materialising a []rune copy.
func runes(text string) []string {
	if text == "" {
		return nil
	}
	atoms := make([]string, 0, utf8.RuneCountInString(text))
	for i, r := range text {
		if r == utf8.RuneError { // an invalid byte, or the replacement character itself
			atoms = append(atoms, "\uFFFD")
		} else {
			atoms = append(atoms, text[i:i+utf8.RuneLen(r)])
		}
	}
	return atoms
}

// Slice returns the text of the rune range [from, to). It reads the range
// in place in one in-order tree walk (O(height + to - from)); looking each
// atom up by index would re-descend from the root per rune and make long
// slices quadratic.
func (b *TextBuffer) Slice(from, to int) (string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.doc.Len()
	if from < 0 || to < from || to > n {
		return "", fmt.Errorf("treedoc: slice [%d,%d) outside [0,%d]: %w", from, to, n, ErrOutOfRange)
	}
	return b.doc.Text(from, to, ""), nil
}
