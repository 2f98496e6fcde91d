package doctree_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/treedoc/treedoc/internal/core"
	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

// tombTwins are two trees fed the same script: real holds an SDIS
// tombstone that is its node's only mini as a flag on the node, twin has
// every such tombstone's mini record built back after each step — the tree
// as it stood while every tombstone was a 20-byte record. The model is the
// live identifiers and atoms in document order and the deleted identifiers
// no flatten has collected. Every observable but the heap must agree.
type tombTwins struct {
	t          *testing.T
	rng        *rand.Rand
	mode       ident.Mode
	real, twin *doctree.Tree
	ids        []ident.Path
	atoms      []string
	dead       []ident.Path
	counter    uint32
	step       string
	met        map[string]int // what the script met, by name
}

func (w *tombTwins) fatalf(format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("%v %s: %s", w.mode, w.step, fmt.Sprintf(format, args...))
}

func (w *tombTwins) trees() []*doctree.Tree { return []*doctree.Tree{w.real, w.twin} }

// dis returns a fresh disambiguator of one of a few sites: under SDIS a
// bare site, so a site inserting again at a gap mints a used identifier.
func (w *tombTwins) dis() ident.Dis {
	w.counter++
	d := ident.Dis{Site: ident.SiteID(1 + w.rng.Intn(4))}
	if w.mode == ident.UDIS {
		d.Counter = w.counter
	}
	return d
}

// isTomb reports whether id names a tomb in the real tree.
func (w *tombTwins) isTomb(id ident.Path) bool {
	h, _ := w.real.MiniOf(id)
	return h == math.MaxUint32
}

// note records a new live atom in the model.
func (w *tombTwins) note(id ident.Path, atom string) {
	i, _ := slices.BinarySearchFunc(w.ids, id, ident.Compare)
	w.ids = slices.Insert(w.ids, i, id.Clone())
	w.atoms = slices.Insert(w.atoms, i, atom)
	if j := slices.IndexFunc(w.dead, id.Equal); j >= 0 {
		w.dead = slices.Delete(w.dead, j, j+1)
	}
}

// insert applies a remote insert of id to both trees; false if id is a
// used identifier. A tombstone's identifier is used, but with revive it
// is inserted again, as a re-delivered insert would be.
func (w *tombTwins) insert(id ident.Path, revive bool) bool {
	w.t.Helper()
	used := w.twin.Exists(id)
	if w.real.Exists(id) != used {
		w.fatalf("Exists(%v): the tree says %v, the twin %v", id, !used, used)
	}
	if used && !revive {
		return false
	}
	tombs, tomb := w.real.Tombs(), w.isTomb(id)
	atom := fmt.Sprint("a", w.counter)
	for _, tr := range w.trees() {
		if err := tr.InsertID(id, atom); err != nil {
			w.fatalf("insert %v: %v", id, err)
		}
	}
	switch {
	case tomb:
		w.met["tomb revived"]++
	case w.real.Tombs() < tombs:
		w.met["tomb built back by an insert"]++
	}
	w.note(id, atom)
	return true
}

func (w *tombTwins) mustInsert(id string) {
	w.t.Helper()
	if !w.insert(ident.MustParsePath(id), false) {
		w.fatalf("%s is used", id)
	}
}

// remote inserts another replica's identifier next to a live atom or a
// tombstone: a child of its mini, a sibling mini at its node, a chain of
// plain elements below its mini, or a subtree of its node's major slot.
func (w *tombTwins) remote() {
	w.t.Helper()
	var base ident.Path
	switch {
	case len(w.dead) > 0 && w.rng.Intn(2) == 0:
		base = w.dead[w.rng.Intn(len(w.dead))]
	case len(w.ids) > 0:
		base = w.ids[w.rng.Intn(len(w.ids))]
	default:
		w.insert(ident.Path{ident.M(uint8(w.rng.Intn(2)), w.dis())}, false)
		return
	}
	var id ident.Path
	switch w.rng.Intn(4) {
	case 0:
		id = base.Child(ident.M(uint8(w.rng.Intn(2)), w.dis()))
	case 1:
		id = base.StripLastDis()
		id[len(id)-1] = ident.M(base.Last().Bit, w.dis())
	case 2:
		id = base.Clone()
		for k := 1 + w.rng.Intn(2); k > 0; k-- {
			id = append(id, ident.J(uint8(w.rng.Intn(2))))
		}
		id = append(id, ident.M(uint8(w.rng.Intn(2)), w.dis()))
	default:
		id = append(base.StripLastDis(), ident.M(uint8(w.rng.Intn(2)), w.dis()))
	}
	w.insert(id, false)
}

// local inserts at gap i as a local edit does (core's allocate): the
// balanced strategy mints an identifier, and a used one becomes the lower
// bound of the next try, its slot the scan's start — a tomb's, when it
// collides with one. The scan is held to the root-down oracle at each try.
func (w *tombTwins) local(i int, d ident.Dis) {
	w.t.Helper()
	atom := fmt.Sprint("l", w.counter)
	var ids [2]ident.Path
	for k, tr := range w.trees() {
		p, f, at, err := gap(tr, i)
		if err != nil {
			w.fatalf("gap %d: %v", i, err)
		}
		for {
			got, _ := tr.FreeSlotAfter(nil, p, at.P, d)
			if want, _ := tr.FreeMiniBetweenOracle(p, f, d); !got.Equal(want) {
				w.fatalf("tree %d gap %d (%v, %v): scan %v, oracle %v", k, i, p, f, got, want)
			}
			id, from := core.Balanced{}.NewID(tr, nil, p, f, at, d)
			used, collides := tr.ExistsFrom(from, id)
			if !collides {
				if _, err := tr.InsertFrom(from, id, atom); err != nil {
					w.fatalf("local insert %v: %v", id, err)
				}
				ids[k] = id
				break
			}
			if k == 0 && w.isTomb(id) {
				w.met["allocation collided with a tomb"]++
			}
			p, at.P = id, used
		}
	}
	if !ids[0].Equal(ids[1]) {
		w.fatalf("gap %d: minted %v and %v", i, ids[0], ids[1])
	}
	w.note(ids[0], atom)
}

// remove deletes atom i from both trees, locally by index or as a remote
// delete by identifier.
func (w *tombTwins) remove(i int, local bool) {
	w.t.Helper()
	id, prune := w.ids[i], w.mode == ident.UDIS
	for _, tr := range w.trees() {
		if local {
			got, err := tr.DeleteAtIndex(i, prune, nil)
			if err != nil || !got.Equal(id) {
				w.fatalf("delete at %d: %v (%v), want %v", i, got, err, id)
			}
		} else if found, err := tr.DeleteID(id, prune); err != nil || !found {
			w.fatalf("delete %v: %v, found %v", id, err, found)
		}
	}
	w.dead = append(w.dead, id)
	w.ids, w.atoms = slices.Delete(w.ids, i, i+1), slices.Delete(w.atoms, i, i+1)
	if w.isTomb(id) {
		w.met["tomb made"]++
	}
}

// redelete applies a remote delete of a deleted identifier again: both
// trees must find nothing to delete.
func (w *tombTwins) redelete(id ident.Path) {
	w.t.Helper()
	if w.isTomb(id) {
		w.met["tomb deleted again"]++
	}
	for _, tr := range w.trees() {
		if found, err := tr.DeleteID(id, w.mode == ident.UDIS); err != nil || found {
			w.fatalf("delete of the deleted %v: %v, found %v", id, err, found)
		}
	}
}

// flatten flattens region in both trees (empty: the whole document). The
// model's live identifiers inside it become canonical, read back from a
// decoded copy; the deleted ones inside it are collected.
func (w *tombTwins) flatten(region ident.Path) {
	w.t.Helper()
	for _, tr := range w.trees() {
		if err := tr.Flatten(region); err != nil {
			w.fatalf("flatten %v: %v", region, err)
		}
	}
	c := w.decoded(w.real)
	for i := range w.ids {
		id, err := c.IDAt(i)
		if err != nil {
			w.fatalf("IDAt(%d) after the flatten: %v", i, err)
		}
		w.ids[i] = id.Clone()
	}
	w.dead = slices.DeleteFunc(w.dead, func(id ident.Path) bool { return ident.RegionCompare(id, region) == 0 })
}

func (w *tombTwins) decoded(tr *doctree.Tree) *doctree.Tree {
	w.t.Helper()
	data := tr.AppendSnapshot(nil)
	c, err := doctree.DecodeSnapshot(data)
	if err != nil {
		w.fatalf("decode: %v", err)
	}
	if !bytes.Equal(c.AppendSnapshot(nil), data) {
		w.fatalf("a decoded copy encodes to other bytes")
	}
	return c
}

// settle builds the twin's tombs back, then holds the trees to each other
// and the model: Check, content, snapshot bytes, Stats but the heap,
// Exists of every live and deleted identifier, ColdestSubtree, and on
// some steps IDAt (which explodes the flattened regions on its way). On a
// decoded copy of the tree — the decoder makes tombs of its own — the
// free-slot scan is held to the oracle at every gap and after every
// tombstone.
func (w *tombTwins) settle() {
	w.t.Helper()
	w.twin.BuildTombs()
	if n := w.twin.Tombs(); n != 0 {
		w.fatalf("the twin holds %d tombs", n)
	}
	want := strings.Join(w.atoms, ",")
	data := w.real.AppendSnapshot(nil)
	st := w.real.Stats(ident.PaperCost(w.mode))
	for k, tr := range w.trees() {
		if err := tr.Check(); err != nil {
			w.fatalf("tree %d: %v", k, err)
		}
		if got := strings.Join(tr.Content(), ","); got != want {
			w.fatalf("tree %d holds %q, want %q", k, got, want)
		}
		if got := tr.AppendSnapshot(nil); !bytes.Equal(got, data) {
			w.fatalf("tree %d encodes to %d bytes, the tree to %d", k, len(got), len(data))
		}
	}
	ts := w.twin.Stats(ident.PaperCost(w.mode))
	if st.HeapBytes > ts.HeapBytes || w.real.MiniRecords() > w.twin.MiniRecords() {
		w.fatalf("the tree holds %d heap bytes and %d mini records, the twin %d and %d",
			st.HeapBytes, w.real.MiniRecords(), ts.HeapBytes, w.twin.MiniRecords())
	}
	if w.real.MiniRecords() < w.twin.MiniRecords() {
		w.met["steps the tree held fewer mini records"]++
	}
	if st.HeapBytes, ts.HeapBytes = 0, 0; st != ts {
		w.fatalf("stats %+v and the twin's %+v", st, ts)
	}
	for _, id := range w.ids {
		if !w.real.Exists(id) || !w.twin.Exists(id) {
			w.fatalf("the live %v does not exist", id)
		}
	}
	for _, id := range w.dead {
		if a, b := w.real.Exists(id), w.twin.Exists(id); a != b || !a && w.mode == ident.SDIS {
			w.fatalf("Exists(%v) of a tombstone: the tree says %v, the twin %v", id, a, b)
		}
	}
	for k := 0; k < 4; k++ {
		cutoff, minNodes, liveOnly := w.rng.Int63n(w.real.Rev()+1), 1+w.rng.Intn(8), w.rng.Intn(2) == 0
		a, b := w.real.ColdestSubtree(cutoff, minNodes, liveOnly), w.twin.ColdestSubtree(cutoff, minNodes, liveOnly)
		if !a.Equal(b) || (a == nil) != (b == nil) {
			w.fatalf("ColdestSubtree(%d, %d, %v) = %v and the twin's %v", cutoff, minNodes, liveOnly, a, b)
		}
	}
	if w.rng.Intn(2) == 0 {
		for i := range w.ids {
			a, errA := w.real.IDAt(i)
			b, errB := w.twin.IDAt(i)
			if errA != nil || errB != nil || !a.Equal(b) {
				w.fatalf("IDAt(%d) = %v (%v) and the twin's %v (%v)", i, a, errA, b, errB)
			}
		}
	}
	c := w.decoded(w.real)
	d := ident.Dis{Counter: w.counter + 1, Site: 9}
	for i := 0; i <= c.Len(); i++ {
		p, f, at, err := gap(c, i)
		if err != nil {
			w.fatalf("gap %d: %v", i, err)
		}
		got, _ := c.FreeSlotAfter(nil, p, at.P, d)
		if want, _ := c.FreeMiniBetweenOracle(p, f, d); !got.Equal(want) {
			w.fatalf("gap %d (%v, %v): scan %v, oracle %v", i, p, f, got, want)
		}
	}
	for _, q := range w.dead {
		at, used := c.ExistsFrom(doctree.Slot{}, q)
		if !used || at == (doctree.Slot{}) {
			continue // collected, or inside a flattened region
		}
		var f ident.Path
		if j, _ := slices.BinarySearchFunc(w.ids, q, ident.Compare); j < len(w.ids) {
			f = w.ids[j]
		}
		got, _ := c.FreeSlotAfter(nil, q, at, d)
		if want, _ := c.FreeMiniBetweenOracle(q, f, d); !got.Equal(want) {
			w.fatalf("after the tombstone %v: scan %v, oracle %v", q, got, want)
		}
	}
}

// setUp builds what the random steps meet too seldom: three sites at one
// gap whose minis all die, a tomb that gains a concurrent sibling, a tomb
// that gains a child below its mini, and a tomb deleted again.
func (w *tombTwins) setUp() {
	w.step = "set-up"
	s := func(site, counter int) string {
		if w.mode == ident.UDIS {
			return fmt.Sprintf("c%ds%d", counter, site)
		}
		return fmt.Sprintf("s%d", site)
	}
	for _, id := range []string{
		"[(0:" + s(1, 1) + ")]", "[(1:" + s(1, 2) + ")]", // the gap lies between these two
		"[(0:" + s(1, 1) + ")(1:" + s(2, 3) + ")]", "[(0:" + s(1, 1) + ")(1:" + s(3, 4) + ")]", "[(0:" + s(1, 1) + ")(1:" + s(4, 5) + ")]",
		"[(1:" + s(1, 2) + ")(0:" + s(2, 6) + ")]", "[(0:" + s(1, 1) + ")(0:" + s(2, 7) + ")]",
	} {
		w.mustInsert(id)
	}
	w.settle()
	for _, id := range slices.Clone(w.ids) { // three sites at one gap, two lone minis
		if len(id) > 1 {
			w.remove(slices.IndexFunc(w.ids, id.Equal), w.rng.Intn(2) == 0)
			w.settle()
		}
	}
	w.mustInsert("[(1:" + s(1, 2) + ")(0:" + s(3, 8) + ")]")                    // a sibling at a tomb's node
	w.mustInsert("[(0:" + s(1, 1) + ")(0:" + s(2, 7) + ")(1:" + s(3, 9) + ")]") // a child below a tomb's mini
	w.settle()
	for _, id := range w.dead {
		w.redelete(id)
	}
	w.settle()
	w.counter = 10
}

// TestTombMatchesRecord replays seeded scripts — the set-up above, then
// remote inserts beside and below live atoms and tombstones, local inserts
// whose allocation may collide with a tomb, local and remote deletes,
// duplicate deletes, re-delivered inserts of deleted atoms, cold, chosen
// and whole-document flattens and snapshot round trips — on a tree whose
// SDIS tombstones may be flags on their nodes and a twin whose tombstones
// are all mini records, in SDIS and in UDIS, which discards instead and
// so holds no tombs.
func TestTombMatchesRecord(t *testing.T) {
	for _, mode := range []ident.Mode{ident.SDIS, ident.UDIS} {
		met := map[string]int{}
		const seeds, steps = 12, 150
		for seed := int64(1); seed <= seeds; seed++ {
			w := &tombTwins{t: t, rng: rand.New(rand.NewSource(seed)), mode: mode,
				real: doctree.New(), twin: doctree.New(), met: met}
			w.setUp()
			for step := 0; step < steps; step++ {
				w.step = fmt.Sprintf("seed %d step %d", seed, step)
				n := len(w.ids)
				for _, tr := range w.trees() {
					tr.AdvanceRev()
				}
				switch r := w.rng.Intn(100); {
				case n == 0 || r < 22:
					w.local(w.rng.Intn(n+1), w.dis())
				case r < 32: // a site deletes an atom and types at its gap again
					i := w.rng.Intn(n)
					d := w.ids[i].Last().Dis
					if w.remove(i, true); mode == ident.UDIS || d.IsCanonical() {
						d = w.dis()
					}
					w.settle()
					w.local(i, d)
				case r < 50:
					w.remote()
				case r < 70:
					w.remove(w.rng.Intn(n), w.rng.Intn(2) == 0)
				case r < 78:
					if len(w.dead) > 0 {
						w.redelete(w.dead[w.rng.Intn(len(w.dead))])
					}
				case r < 82:
					if len(w.dead) > 0 {
						w.insert(w.dead[w.rng.Intn(len(w.dead))], true)
					}
				case r < 88:
					if cold := w.real.ColdestSubtree(w.real.Rev()-2, 2, mode == ident.UDIS); cold != nil {
						w.flatten(cold)
						met["cold flatten"]++
					}
				case r < 94: // flatten the node of a live atom's ancestor
					id := w.ids[w.rng.Intn(n)]
					region := id.StripLastDis()[:1+w.rng.Intn(len(id))]
					region[len(region)-1] = ident.J(region[len(region)-1].Bit)
					w.flatten(region)
					met["chosen flatten"]++
				case r < 95:
					w.flatten(ident.Path{})
					met["whole-document flatten"]++
				default:
					w.real = w.decoded(w.real)
					w.twin = w.decoded(w.twin)
					met["round trip"]++
				}
				w.settle()
				if w.real.Tombs() > 0 {
					met["steps with a tomb"]++
				}
			}
		}
		t.Logf("%v: %v", mode, met)
		if mode == ident.UDIS {
			continue
		}
		for what, least := range map[string]int{
			"steps with a tomb": seeds * steps / 2, "steps the tree held fewer mini records": seeds * steps / 2,
			"tomb made": 100, "tomb built back by an insert": 20, "tomb revived": 5, "tomb deleted again": 20,
			"allocation collided with a tomb": 5, "cold flatten": 5, "chosen flatten": 5, "whole-document flatten": 2, "round trip": 5,
		} {
			if met[what] < least {
				t.Errorf("%v: the scripts no longer exercise the tombs: %q %d times, want %d", mode, what, met[what], least)
			}
		}
	}
}

// TestCheckRefusesBrokenTomb: Check catches each way a tomb flag can
// disagree with the node it is set on.
func TestCheckRefusesBrokenTomb(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		ids        []string // applied in order: inserts, and SDIS deletes marked -
		node       string   // the node flagged
		flatten    bool
	}{
		{"on the root", "root holds mini-nodes", []string{"[(0:s1)]"}, "[]", false},
		{"on a flat node", "a tomb", []string{"[(0:s1)]", "[0(0:s2)]"}, "[0]", true},
		{"over a live mini with a child", "node counters", []string{"[(0:s1)]", "[(0:s1)(1:s2)]"}, "[0]", false},
		// The counters agree: the mini's entry and its onMini child are
		// what the tomb leaves unreached.
		{"over a dead mini with a child", "mini-child entries",
			[]string{"[(0:s1)]", "[(0:s1)(1:s2)]", "-[(0:s1)(1:s2)]", "-[(0:s1)]"}, "[0]", false},
		{"counted in emptyN", "node counters", []string{"[0(0:s1)]"}, "[0]", false},
		{"with a non-zero counter", "reached", []string{"[(0:c5s1)]", "-[(0:c5s1)]"}, "[0]", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := doctree.New()
			for _, id := range tc.ids {
				var err error
				if s, ok := strings.CutPrefix(id, "-"); ok {
					_, err = tr.DeleteID(ident.MustParsePath(s), false)
				} else {
					err = tr.InsertID(ident.MustParsePath(id), "x")
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			node := ident.MustParsePath(tc.node)
			if tc.flatten {
				if err := tr.Flatten(node); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatalf("before the damage: %v", err)
			}
			tombs := tr.Tombs()
			if tr.SetTomb(node); tr.Tombs() != tombs+1 {
				t.Fatalf("%s is a tomb already", tc.node)
			}
			if err := tr.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}
