package doctree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// twins are two trees fed the same script: counted keeps every balanced
// growth as a reserve count, built has every reserved node built as soon
// as it is reserved — the tree as it stood while a reservation was 2^k − 1
// node records. Every observable must agree.
type twins struct {
	t              *testing.T
	counted, built *doctree.Tree
	mode           ident.Mode
	step           int
}

func (w *twins) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%v step %d: %s", w.mode, w.step, fmt.Sprintf(format, args...))
}

// gap returns the neighbours of insertion gap i and where they lie, as a
// local insert finds them.
func gap(tr *doctree.Tree, i int) (p, f ident.Path, at doctree.Gap, err error) {
	n := tr.Len()
	switch {
	case i > 0 && i < n:
		return tr.AppendNeighborIDs(nil, nil, i)
	case i > 0:
		p, at.P, err = tr.AppendIDAt(nil, i-1)
	case i < n:
		f, at.F, err = tr.AppendIDAt(nil, i)
	}
	return p, f, at, err
}

// localInsert mints a balanced identifier at gap i in both trees, building
// built's reservations at once, and inserts it unless it is a used one.
func (w *twins) localInsert(i int, d ident.Dis) {
	w.t.Helper()
	var ids [2]ident.Path
	var used [2]bool
	for k, tr := range []*doctree.Tree{w.counted, w.built} {
		p, f, at, err := gap(tr, i)
		if err != nil {
			w.fatalf("gap %d: %v", i, err)
		}
		id, from := core.Balanced{}.NewID(tr, nil, p, f, at, d)
		if tr == w.built {
			tr.MaterializeReserved()
		}
		if _, used[k] = tr.ExistsFrom(from, id); !used[k] {
			if _, err := tr.InsertFrom(from, id, "x"); err != nil {
				w.fatalf("insert %v: %v", id, err)
			}
		}
		ids[k] = id
	}
	if !ids[0].Equal(ids[1]) || used[0] != used[1] {
		w.fatalf("gap %d: minted %v (used %v) and %v (used %v)", i, ids[0], used[0], ids[1], used[1])
	}
}

// idAt returns the identifier of atom i, exploding the flattened regions
// on its route in both trees.
func (w *twins) idAt(i int) ident.Path {
	w.t.Helper()
	id, err := w.counted.IDAt(i)
	if err == nil {
		_, err = w.built.IDAt(i)
	}
	if err != nil {
		w.fatalf("atom %d: %v", i, err)
	}
	return id
}

// remoteInsert applies an insert another replica minted below a live
// atom's node, which may land inside or below a reserved subtree.
func (w *twins) remoteInsert(rng *rand.Rand, d ident.Dis) {
	w.t.Helper()
	if w.counted.Len() == 0 {
		return
	}
	base := w.idAt(rng.Intn(w.counted.Len()))
	id := base.StripLastDis()
	for k := rng.Intn(4); k > 0; k-- {
		id = append(id, ident.J(uint8(rng.Intn(2))))
	}
	id = append(id, ident.M(uint8(rng.Intn(2)), d))
	for _, tr := range []*doctree.Tree{w.counted, w.built} {
		if tr.Exists(id) {
			return // the first tree is asked first: both or neither
		}
		if err := tr.InsertID(id, "r"); err != nil {
			w.fatalf("remote insert %v: %v", id, err)
		}
	}
}

// agree compares everything but the heap the two trees hold.
func (w *twins) agree(rng *rand.Rand) {
	w.t.Helper()
	for _, tr := range []*doctree.Tree{w.counted, w.built} {
		if err := tr.Check(); err != nil {
			w.fatalf("%v", err)
		}
	}
	a, b := w.counted.AppendSnapshot(nil), w.built.AppendSnapshot(nil)
	if !bytes.Equal(a, b) {
		w.fatalf("snapshots differ: %d and %d bytes", len(a), len(b))
	}
	sa, sb := w.counted.Stats(ident.PaperCost(w.mode)), w.built.Stats(ident.PaperCost(w.mode))
	if sa.HeapBytes > sb.HeapBytes {
		w.fatalf("counted reservations hold %d heap bytes, built ones %d", sa.HeapBytes, sb.HeapBytes)
	}
	sa.HeapBytes, sb.HeapBytes = 0, 0
	if sa != sb {
		w.fatalf("stats %+v and %+v", sa, sb)
	}
	if w.counted.Height() != w.built.Height() {
		w.fatalf("heights %d and %d", w.counted.Height(), w.built.Height())
	}
	for k := 0; k < 4; k++ {
		cutoff, minNodes, liveOnly := rng.Int63n(w.counted.Rev()+1), 1+rng.Intn(8), rng.Intn(2) == 0
		ca, cb := w.counted.ColdestSubtree(cutoff, minNodes, liveOnly), w.built.ColdestSubtree(cutoff, minNodes, liveOnly)
		if !ca.Equal(cb) || (ca == nil) != (cb == nil) {
			w.fatalf("ColdestSubtree(%d, %d, %v) = %v and %v", cutoff, minNodes, liveOnly, ca, cb)
		}
	}
}

// TestReserveCountMatchesBuiltSubtree replays random scripts — local
// inserts through the balanced strategy, remote inserts into and below
// reserved subtrees, deletes (pruning under UDIS), cold and chosen
// flattens over regions holding reservations — on twin trees, one holding
// its reservations as counts and one with every reserved node built. The
// twins must mint the same identifiers and agree on the snapshot bytes,
// Stats but the heap, Height, ColdestSubtree and Check; a snapshot of the
// counted tree must decode and encode back to the same bytes.
func TestReserveCountMatchesBuiltSubtree(t *testing.T) {
	for _, mode := range []ident.Mode{ident.SDIS, ident.UDIS} {
		fewer := 0      // steps after which the counted tree held fewer node records
		overCounts := 0 // chosen flattens over a region holding unbuilt reservations
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := &twins{t: t, counted: doctree.New(), built: doctree.New(), mode: mode}
			counter := uint32(0)
			dis := func() ident.Dis {
				counter++
				if mode == ident.SDIS {
					return ident.Dis{Site: ident.SiteID(1 + rng.Intn(3))}
				}
				return ident.Dis{Counter: counter, Site: ident.SiteID(1 + rng.Intn(3))}
			}
			for w.step = 0; w.step < 250; w.step++ {
				n := w.counted.Len()
				switch r := rng.Intn(100); {
				case n == 0 || r < 55:
					i := n // appends grow the tree, and the growth leaves slots behind
					if rng.Intn(3) > 0 {
						i = rng.Intn(n + 1)
					}
					w.localInsert(i, dis())
				case r < 65:
					w.remoteInsert(rng, dis())
				case r < 88:
					i := rng.Intn(n)
					a, err := w.counted.DeleteAtIndex(i, mode == ident.UDIS, nil)
					if err != nil {
						w.fatalf("delete %d: %v", i, err)
					}
					b, err := w.built.DeleteAtIndex(i, mode == ident.UDIS, nil)
					if err != nil || !a.Equal(b) {
						w.fatalf("deleted %v and %v (%v)", a, b, err)
					}
				case r < 96:
					w.counted.AdvanceRev()
					w.built.AdvanceRev()
					if cold := w.counted.ColdestSubtree(w.counted.Rev()-1, 2, mode == ident.UDIS); cold != nil {
						for _, tr := range []*doctree.Tree{w.counted, w.built} {
							if err := tr.Flatten(cold); err != nil {
								w.fatalf("flatten %v: %v", cold, err)
							}
						}
					}
				default: // flatten the node of a live atom's ancestor
					id := w.idAt(rng.Intn(n))
					region := id.StripLastDis()[:1+rng.Intn(len(id))]
					region[len(region)-1] = ident.J(region[len(region)-1].Bit)
					counted, built := w.counted.Records(), w.built.Records()
					for _, tr := range []*doctree.Tree{w.counted, w.built} {
						if err := tr.Flatten(region); err != nil {
							w.fatalf("flatten %v: %v", region, err)
						}
					}
					if built-w.built.Records() > counted-w.counted.Records() {
						overCounts++ // the region held reserved nodes no walk had built
					}
				}
				w.agree(rng)
				if w.counted.Records() < w.built.Records() {
					fewer++
				}
			}
			data := w.counted.AppendSnapshot(nil)
			back, err := doctree.DecodeSnapshot(data)
			if err != nil {
				t.Fatalf("%v seed %d: decode: %v", mode, seed, err)
			}
			if err := back.Check(); err != nil || !bytes.Equal(back.AppendSnapshot(nil), data) {
				t.Fatalf("%v seed %d: snapshot round trip: %v", mode, seed, err)
			}
		}
		t.Logf("%v: fewer records after %d of %d steps; %d flattens over unbuilt reservations", mode, fewer, 40*250, overCounts)
		if fewer < 40*250/2 || overCounts < 20 {
			t.Errorf("%v: the scripts no longer exercise the counts: fewer records after %d of %d steps, %d flattens over them",
				mode, fewer, 40*250, overCounts)
		}
	}
}
