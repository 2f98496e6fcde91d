package treedoc

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func newBuf(t *testing.T, site SiteID) *TextBuffer {
	t.Helper()
	b, err := NewTextBuffer(WithSite(site))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTextBufferSplice(t *testing.T) {
	b := newBuf(t, 1)
	if _, err := b.Append("hello world"); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "hello world" {
		t.Fatalf("buffer = %q", got)
	}
	if b.Len() != 11 {
		t.Errorf("len = %d", b.Len())
	}
	// Replace "world" with "treedoc".
	if _, err := b.Splice(6, 5, "treedoc"); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "hello treedoc" {
		t.Errorf("buffer = %q", got)
	}
	if _, err := b.Insert(5, ","); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "hello, treedoc" {
		t.Errorf("buffer = %q", got)
	}
	if _, err := b.Delete(0, 7); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "treedoc" {
		t.Errorf("buffer = %q", got)
	}
	s, err := b.Slice(1, 5)
	if err != nil || s != "reed" {
		t.Errorf("Slice = %q, %v", s, err)
	}
}

func TestTextBufferUnicode(t *testing.T) {
	b := newBuf(t, 1)
	if _, err := b.Append("héllo wörld ✓"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 13 {
		t.Errorf("rune len = %d, want 13", b.Len())
	}
	if _, err := b.Splice(6, 5, "mönde"); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "héllo mönde ✓" {
		t.Errorf("buffer = %q", got)
	}
	// An invalid byte is one rune, stored as the replacement character —
	// what ranging over the string reads, including a literal U+FFFD.
	if _, err := b.Splice(0, b.Len(), "a\xffb�c\xc3"); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "a�b�c�" || b.Len() != 6 {
		t.Errorf("buffer = %q (%d runes), want invalid bytes replaced", got, b.Len())
	}
}

func TestTextBufferErrors(t *testing.T) {
	b := newBuf(t, 1)
	if _, err := b.Splice(-1, 0, "x"); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := b.Splice(1, 0, "x"); err == nil {
		t.Error("offset beyond end accepted")
	}
	if _, err := b.Splice(0, 5, ""); err == nil {
		t.Error("over-long delete accepted")
	}
	if _, err := b.Slice(0, 1); err == nil {
		t.Error("slice beyond end accepted")
	}
	if _, err := b.Slice(-1, 0); err == nil {
		t.Error("negative slice accepted")
	}
}

func TestTextBufferConvergence(t *testing.T) {
	a, b := newBuf(t, 1), newBuf(t, 2)
	ops, err := a.Append("the quick fox")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyAll(ops); err != nil {
		t.Fatal(err)
	}
	// Concurrent typing at different cursor positions.
	opsA, err := a.Insert(4, "very ")
	if err != nil {
		t.Fatal(err)
	}
	opsB, err := b.Splice(10, 3, "brown fox jumps")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ApplyAll(opsB); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyAll(opsA); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("diverged: %q vs %q", a.String(), b.String())
	}
	if want := "the very quick brown fox jumps"; a.String() != want {
		t.Errorf("converged = %q, want %q", a.String(), want)
	}
}

func TestTextBufferCompact(t *testing.T) {
	b := newBuf(t, 1)
	if _, err := b.Append(strings.Repeat("abcdefgh", 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Delete(100, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Flatten(); err != nil {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.Tree.MemBytes != 0 {
		t.Errorf("compact left %d bytes overhead", s.Tree.MemBytes)
	}
	if b.Len() != 300 {
		t.Errorf("len = %d", b.Len())
	}
	// Editing after compaction re-explodes lazily.
	if _, err := b.Insert(150, "X"); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 301 {
		t.Errorf("len = %d", b.Len())
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTextBufferRandomTypists runs a differential test against a plain
// string: two replicas splice randomly (non-overlapping sessions mirrored
// through op exchange) and must match the reference after every exchange.
func TestTextBufferRandomTypists(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	a, b := newBuf(t, 1), newBuf(t, 2)
	for round := 0; round < 60; round++ {
		// a edits, b follows.
		n := a.Len()
		off := 0
		if n > 0 {
			off = rng.Intn(n + 1)
		}
		del := 0
		if n-off > 0 && rng.Intn(3) == 0 {
			del = rng.Intn(min(4, n-off+1))
		}
		ins := ""
		if rng.Intn(4) > 0 {
			ins = fmt.Sprintf("<%d>", round)
		}
		ops, err := a.Splice(off, del, ins)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := b.ApplyAll(ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if a.String() != b.String() {
			t.Fatalf("round %d: diverged\n%q\n%q", round, a.String(), b.String())
		}
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTextBufferRemoteDeletes: remote deletes, applied the way a
// replication engine applies them, shrink the buffer while the editor
// splices and slices near its end at offsets read a moment before. The
// rune bounds are checked under the Doc's one lock, so a stale offset
// surfaces as ErrOutOfRange and nothing else, and Append, which reads the
// length under that lock, never fails. Run it under -race.
func TestTextBufferRemoteDeletes(t *testing.T) {
	src, b := newBuf(t, 1), newBuf(t, 2)
	ops, err := src.Append(strings.Repeat("0123456789", 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyAll(ops); err != nil {
		t.Fatal(err)
	}
	var dels []Op
	for src.Len() > 0 {
		ops, err := src.Delete(src.Len()-1, 1)
		if err != nil {
			t.Fatal(err)
		}
		dels = append(dels, ops...)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < len(dels); i += 4 {
			if _, err := b.ApplyBatch(dels[i:min(i+4, len(dels))]); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		n := b.Len()
		if _, err := b.Splice(max(n-3, 0), min(n, 2), "ab"); err != nil && !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("splice at %d of %d: %v", max(n-3, 0), n, err)
		}
		if _, err := b.Slice(max(n-4, 0), n); err != nil && !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("slice to %d: %v", n, err)
		}
		if _, err := b.Append("z"); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTextBufferRunesAcrossAtomBlocks: the tree packs atoms' bytes in blocks
// of 64 handles, so runes of one to four bytes deleted and re-inserted
// across a block's edge move the text of both blocks. After every splice
// the buffer, a slice across the edge, the tree's invariants and a joiner
// installing its snapshot must all read the reference text.
func TestTextBufferRunesAcrossAtomBlocks(t *testing.T) {
	b := newBuf(t, 1)
	widths := "aé✓😀" // one, two, three and four bytes
	var ref []rune
	for i := 0; i < 200; i++ {
		ref = append(ref, []rune(widths)[i%4])
	}
	if _, err := b.Append(string(ref)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		off, del int
		ins      string
	}{
		{50, 40, "ü😀ß"},                   // handles 51-90: across the edge at 64
		{55, 0, strings.Repeat("日本", 20)}, // reuses the freed handles, then fresh ones
		{0, 130, ""},                      // empties the first block and most of the second
		{10, 5, strings.Repeat("€x😀", 30)},
	} {
		if _, err := b.Splice(s.off, s.del, s.ins); err != nil {
			t.Fatal(err)
		}
		ref = append(ref[:s.off], append([]rune(s.ins), ref[s.off+s.del:]...)...)
		if err := b.Check(); err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != string(ref) {
			t.Fatalf("after splice %v: buffer = %q, want %q", s, got, string(ref))
		}
		if got, err := b.Slice(5, len(ref)-5); err != nil || got != string(ref[5:len(ref)-5]) {
			t.Fatalf("after splice %v: Slice = %q, %v", s, got, err)
		}
		data, _, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		j := newBuf(t, 2)
		if _, err := j.InstallSnapshot(data); err != nil {
			t.Fatal(err)
		}
		if err := j.Check(); err != nil || j.String() != string(ref) {
			t.Fatalf("after splice %v: joiner reads %q (Check %v)", s, j.String(), err)
		}
	}
}
