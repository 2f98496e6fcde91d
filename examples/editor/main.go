// Editor: the paper's future-work scenario — Treedoc behind a text editor
// buffer (Section 7: "implementing Treedoc within an existing text editor").
// Two character-granularity buffers replay a recorded typing session
// concurrently: every keystroke is a splice, every splice ships commuting
// operations, and the cursors never block on each other.
package main

import (
	"fmt"
	"log"

	"github.com/treedoc/treedoc"
)

type keystroke struct {
	who  int // 1 = left editor, 2 = right editor
	off  int
	del  int
	text string
}

func main() {
	left, err := treedoc.NewTextBuffer(treedoc.WithSite(1))
	if err != nil {
		log.Fatal(err)
	}
	right, err := treedoc.NewTextBuffer(treedoc.WithSite(2))
	if err != nil {
		log.Fatal(err)
	}

	// A shared draft, replicated.
	ops, err := left.Append("CRDTs converge without locks.")
	if err != nil {
		log.Fatal(err)
	}
	if err := right.ApplyAll(ops); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("draft: %q\n\n", left.String())

	// A concurrent editing burst: neither editor sees the other's changes
	// until the end of the burst (offline typing, slow link — same thing).
	leftSession := []keystroke{
		{1, 0, 0, "Sequence "},       // prepend
		{1, 15, 9, "replicas agree"}, // rewrite the middle
	}
	rightSession := []keystroke{
		{2, 29, 0, " Ever."}, // append (against the original draft)
		{2, 0, 5, "CRDTS"},   // shout the acronym
	}

	var fromLeft, fromRight []treedoc.Op
	for _, k := range leftSession {
		ops, err := left.Splice(k.off, k.del, k.text)
		if err != nil {
			log.Fatal(err)
		}
		fromLeft = append(fromLeft, ops...)
	}
	for _, k := range rightSession {
		ops, err := right.Splice(k.off, k.del, k.text)
		if err != nil {
			log.Fatal(err)
		}
		fromRight = append(fromRight, ops...)
	}
	fmt.Printf("left editor typed:  %q\n", left.String())
	fmt.Printf("right editor typed: %q\n\n", right.String())

	// The link comes back: exchange the sessions (in either order).
	if err := left.ApplyAll(fromRight); err != nil {
		log.Fatal(err)
	}
	if err := right.ApplyAll(fromLeft); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("left after merge:  %q\n", left.String())
	fmt.Printf("right after merge: %q\n", right.String())
	if left.String() != right.String() {
		log.Fatal("BUG: editors diverged")
	}
	fmt.Println("\nboth editors show the same buffer — merged character by character")

	// Housekeeping: flatten the quiescent buffer to a plain array.
	if err := left.Flatten(); err != nil {
		log.Fatal(err)
	}
	st := left.Stats()
	fmt.Printf("after compaction: %d chars, %d bytes of metadata\n",
		st.Tree.LiveAtoms, st.Tree.MemBytes)
}
