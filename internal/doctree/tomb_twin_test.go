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

// tombTwins are two trees fed the same script: real holds a mini that is
// its node's only one, with counter 0 and no children, in the node itself
// — a solo, live or dead (a tomb) — and a chain of tombs in one node (a
// run); twin has every run's members and every solo's mini record built
// back after each step: the tree as it stood while every mini was a
// 20-byte record. The model is the live identifiers and atoms in document
// order and the deleted identifiers no flatten has collected. Every
// observable but the heap must agree.
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

// isSolo reports whether id names a solo mini in the real tree.
func (w *tombTwins) isSolo(id ident.Path) bool {
	h, _ := w.real.MiniOf(id)
	return h == math.MaxUint32
}

// inRun names where id ends in the real tree's runs: "" for none.
func (w *tombTwins) inRun(id ident.Path) string {
	switch j, k := w.real.RunMember(id); {
	case k == 0:
		return ""
	case j+1 < k:
		return " a run's upper member"
	}
	return " a run's last member"
}

// pickDead returns a deleted identifier, half the time one of a run's
// tombs if any is.
func (w *tombTwins) pickDead() ident.Path {
	if w.rng.Intn(2) == 0 {
		for _, k := range w.rng.Perm(len(w.dead)) {
			if w.inRun(w.dead[k]) != "" {
				return w.dead[k]
			}
		}
	}
	return w.dead[w.rng.Intn(len(w.dead))]
}

// isLive reports whether id names a live atom in the model.
func (w *tombTwins) isLive(id ident.Path) bool {
	_, ok := slices.BinarySearchFunc(w.ids, id, ident.Compare)
	return ok
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
	records, tomb, run := w.real.MiniRecords(), w.isSolo(id), w.inRun(id)
	atom := fmt.Sprint("a", w.counter)
	for _, tr := range w.trees() {
		if err := tr.InsertID(id, atom); err != nil {
			w.fatalf("insert %v: %v", id, err)
		}
	}
	switch {
	case run != "":
		w.met["revived"+run]++
	case tomb:
		w.met["tomb revived"]++
	case w.real.MiniRecords() > records+1:
		w.met["solo built back by an insert"]++
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
		base = w.pickDead()
	case len(w.ids) > 0:
		base = w.ids[w.rng.Intn(len(w.ids))]
	default:
		w.insert(ident.Path{ident.M(uint8(w.rng.Intn(2)), w.dis())}, false)
		return
	}
	var id ident.Path
	what := "a child below"
	switch w.rng.Intn(4) {
	case 0:
		id = base.Child(ident.M(uint8(w.rng.Intn(2)), w.dis()))
	case 1:
		id = base.StripLastDis()
		id[len(id)-1] = ident.M(base.Last().Bit, w.dis())
		what = "a sibling at"
	case 2:
		id = base.Clone()
		for k := 1 + w.rng.Intn(2); k > 0; k-- {
			id = append(id, ident.J(uint8(w.rng.Intn(2))))
		}
		id = append(id, ident.M(uint8(w.rng.Intn(2)), w.dis()))
	default:
		id = append(base.StripLastDis(), ident.M(uint8(w.rng.Intn(2)), w.dis()))
		what = "a node below"
	}
	solo, live, run := w.isSolo(base), w.isLive(base), w.inRun(base)
	if w.insert(id, false) && run != "" {
		w.met[what+run]++
	} else if solo {
		if live {
			w.met[what+" a live solo"]++
		} else {
			w.met[what+" a tomb"]++
		}
	}
}

// reserve grows a balanced subtree below a live or deleted atom's mini, or
// below its node, as a strategy's growth does, from the walk cache a walk
// to the atom leaves — at a solo, the slot the reservation builds back.
func (w *tombTwins) reserve() {
	w.t.Helper()
	var base ident.Path
	switch {
	case len(w.dead) > 0 && w.rng.Intn(2) == 0:
		base = w.pickDead()
	case len(w.ids) > 0:
		base = w.ids[w.rng.Intn(len(w.ids))]
	default:
		return
	}
	region := append(base.Clone(), ident.J(uint8(w.rng.Intn(2))))
	if w.rng.Intn(3) == 0 {
		region = base.StripLastDis()
	}
	solo, levels := w.isSolo(base) && len(region) > len(base), 2+w.rng.Intn(2)
	if run := w.inRun(base); run != "" {
		w.met["reserve at"+run]++
	}
	for _, tr := range w.trees() {
		tr.HasLive(base) // leaves the walk cache at base, or where its walk stopped
		if err := tr.Reserve(region, levels); err != nil {
			w.fatalf("reserve %v: %v", region, err)
		}
	}
	if solo {
		w.met["reserve below a solo from the walk cache"]++
	}
}

// local inserts a run of n atoms at gaps i, i+1, ... as local edits do
// (core's InsertAt and allocate): the balanced strategy mints an
// identifier, and a used one becomes the lower bound of the next try, its
// slot the scan's start — a tomb's, when it collides with one. The next
// gap's left neighbour is the atom just inserted, where the insert left
// it: a solo's slot, if it landed in a node of its own. The scan is held
// to the root-down oracle at each try.
func (w *tombTwins) local(i, n int, d ident.Dis) {
	w.t.Helper()
	ids := make([][]ident.Path, 2)
	for k, tr := range w.trees() {
		p, f, at, err := gap(tr, i)
		if err != nil {
			w.fatalf("gap %d: %v", i, err)
		}
		for j := 0; j < n; j++ {
			if j > 0 && k == 0 && w.isSolo(p) {
				w.met["run slot named a solo"]++
			}
			p, at.P = w.mint(k, tr, p, f, at, d, fmt.Sprint("l", w.counter, ".", j))
			ids[k] = append(ids[k], p)
		}
	}
	for j, id := range ids[0] {
		if !id.Equal(ids[1][j]) {
			w.fatalf("gap %d: minted %v and %v", i+j, id, ids[1][j])
		}
		w.note(id, fmt.Sprint("l", w.counter, ".", j))
	}
}

// mint inserts atom into tree k as a local insert between p and f, which
// lie at at, does, and returns its identifier and slot: a used identifier
// the strategy mints becomes the lower bound of the next try, its slot
// the scan's start. The scan is held to the root-down oracle at each try.
func (w *tombTwins) mint(k int, tr *doctree.Tree, p, f ident.Path, at doctree.Gap, d ident.Dis, atom string) (ident.Path, doctree.Slot) {
	w.t.Helper()
	for {
		got, _ := tr.FreeSlotAfter(nil, p, at.P, d)
		if want, _ := tr.FreeMiniBetweenOracle(p, f, d); !got.Equal(want) {
			w.fatalf("tree %d gap (%v, %v): scan %v, oracle %v", k, p, f, got, want)
		}
		id, from := core.Balanced{}.NewID(tr, nil, p, f, at, d)
		used, collides := tr.ExistsFrom(from, id)
		if !collides {
			s, err := tr.InsertFrom(from, id, atom)
			if err != nil {
				w.fatalf("local insert %v: %v", id, err)
			}
			return id, s
		}
		if k == 0 && w.isSolo(id) {
			w.met["allocation collided with a tomb"]++
		}
		if k == 0 && used.AboveRun() {
			w.met["allocation collided with"+w.inRun(id)]++
		}
		p, at.P = id, used
	}
}

// after inserts an atom locally right after the deleted q, as a site whose
// allocation collided with q goes on from it.
func (w *tombTwins) after(q ident.Path, d ident.Dis) {
	w.t.Helper()
	var f ident.Path
	if j, _ := slices.BinarySearchFunc(w.ids, q, ident.Compare); j < len(w.ids) {
		f = w.ids[j]
	}
	var ids []ident.Path
	for k, tr := range w.trees() {
		at, used := tr.ExistsFrom(doctree.Slot{}, q)
		if !used {
			w.fatalf("the tombstone %v is not used in tree %d", q, k)
		}
		id, _ := w.mint(k, tr, q, f, doctree.Gap{P: at}, d, fmt.Sprint("q", w.counter))
		ids = append(ids, id)
	}
	if !ids[0].Equal(ids[1]) {
		w.fatalf("after %v: minted %v and %v", q, ids[0], ids[1])
	}
	w.note(ids[0], fmt.Sprint("q", w.counter))
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
	if w.isSolo(id) {
		w.met["tomb made"]++
	}
}

// redelete applies a remote delete of a deleted identifier again: both
// trees must find nothing to delete.
func (w *tombTwins) redelete(id ident.Path) {
	w.t.Helper()
	if w.isSolo(id) {
		w.met["tomb deleted again"]++
	}
	if run := w.inRun(id); run != "" {
		w.met["deleted again at"+run]++
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

// settle builds the twin's solos back, then holds the trees to each other
// and the model: Check (which holds the walk cache to the tree's slots),
// content, snapshot bytes, Stats but the heap, Exists of every live and
// deleted identifier, ColdestSubtree, and on some steps IDAt (which
// explodes the flattened regions on its way) and the atoms of the walk
// from every index. On a decoded copy of the tree — the decoder makes
// solos of its own — the free-slot scan is held to the oracle at every gap
// and after every tombstone.
func (w *tombTwins) settle() {
	w.t.Helper()
	w.twin.BuildSolos()
	if live, dead := w.twin.Solos(); live+dead != 0 {
		w.fatalf("the twin holds %d live and %d dead solos", live, dead)
	}
	if runs, _, longest := w.real.Runs(); runs > 0 {
		w.met["steps with a run"]++
		if longest == doctree.MaxRun {
			w.met["steps with a run at its longest"]++
		}
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
			w.fatalf("tree %d encodes to %d bytes, the tree to %d\n%x\n%x", k, len(got), len(data), got, data)
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
			atom, err := w.real.AtomAt(i)
			var visited []string
			w.real.VisitRange(i, len(w.ids), func(a string) bool { visited = append(visited, a); return len(visited) < 3 })
			if err != nil || atom != w.atoms[i] || !slices.Equal(visited, w.atoms[i:min(i+3, len(w.atoms))]) {
				w.fatalf("AtomAt(%d) = %q (%v), a visit from it %q; want %q", i, atom, err, visited, w.atoms[i:min(i+3, len(w.atoms))])
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
		if at.AboveRun() {
			w.met["scans from a run's tomb"]++
		}
	}
}

// setUp builds what the random steps meet too seldom: three sites at one
// gap whose minis all die, a tomb that gains a concurrent sibling, a tomb
// that gains a child below its mini, a tomb deleted again, live solos that
// gain a sibling and a child, a live solo deleted and revived, and a
// reservation below a live solo's mini from the walk cache.
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
	w.mustInsert("[1(1:" + s(5, 10) + ")]")
	w.mustInsert("[1(1:" + s(6, 11) + ")]")                     // a sibling at a live solo's node
	w.mustInsert("[0(1:" + s(5, 12) + ")]")                     // a live solo
	w.mustInsert("[0(1:" + s(5, 12) + ")(0:" + s(6, 13) + ")]") // a child below its mini
	w.mustInsert("[1(0:" + s(5, 14) + ")]")                     // a live solo, deleted and revived
	w.settle()
	revived := slices.IndexFunc(w.ids, ident.MustParsePath("[1(0:"+s(5, 14)+")]").Equal)
	w.remove(revived, false)
	w.settle()
	w.insert(w.dead[len(w.dead)-1], true)
	solo := "[0(0:" + s(5, 15) + ")]"
	w.mustInsert(solo)
	if id := ident.MustParsePath(solo); w.mode == ident.SDIS && !w.isSolo(id) {
		w.fatalf("%v is not a solo", solo)
	}
	for _, tr := range w.trees() {
		tr.HasLive(ident.MustParsePath(solo)) // the walk cache lies at the live solo
		if err := tr.Reserve(ident.MustParsePath(solo[:len(solo)-1]+"0]"), 3); err != nil {
			w.fatalf("reserve below a solo: %v", err)
		}
	}
	w.settle()
	w.setUpRun()
	w.counter = 20
}

// setUpRun builds a chain of MaxRun+3 lone minis of one site below node 11,
// turning left and right, and deletes its last two, then the rest from the
// top: the tombs join the runs below and above them, and one run grows to
// its longest. Then it splits the runs every way a walk can: a node on an
// upper member's free side, a sibling at an upper member's node, a member
// deleted again, revived and reserved through, a flatten inside a run and
// above another, and one at a run's top. The random steps meet the rest.
func (w *tombTwins) setUpRun() {
	w.step = "run set-up"
	dis := func(site ident.SiteID) ident.Dis {
		if w.counter++; w.mode == ident.UDIS {
			return ident.Dis{Counter: w.counter, Site: site}
		}
		return ident.Dis{Site: site}
	}
	const bits = "1011001110001011010011101100101011"
	node := func(k int) ident.Path { // member k's node
		p := ident.Path{ident.J(1), ident.J(1)}
		for i := 0; i <= k; i++ {
			p = append(p, ident.J(bits[i]-'0'))
		}
		return p
	}
	mini := func(k int, d ident.Dis) ident.Path {
		p := node(k)
		p[len(p)-1] = ident.M(p[len(p)-1].Bit, d)
		return p
	}
	chain, d := make([]ident.Path, doctree.MaxRun+3), dis(7)
	for k := range chain {
		if chain[k] = mini(k, d); !w.insert(chain[k], false) {
			w.fatalf("%v is used", chain[k])
		}
	}
	w.settle()
	last := len(chain) - 1
	order := []int{last, last - 1}
	for k := 0; k < last-1; k++ {
		order = append(order, k)
	}
	for _, k := range order {
		w.remove(slices.IndexFunc(w.ids, chain[k].Equal), k%2 == 0)
	}
	w.settle()
	if w.mode == ident.UDIS { // deletes discard the chain: no tombs
		return
	}
	if _, _, longest := w.real.Runs(); longest != doctree.MaxRun {
		w.fatalf("the chain's longest run holds %d tombs, want %d", longest, doctree.MaxRun)
	}
	for _, step := range []struct {
		what string
		fn   func()
	}{
		{"a node on a run member's free side", func() { w.insert(append(node(3), ident.M('1'-bits[4], dis(8))), false) }},
		{"a sibling at a run member", func() { w.insert(mini(6, dis(9)), false) }},
		{"a run member deleted again", func() { w.redelete(chain[8]) }},
		{"a run member revived", func() { w.insert(chain[10], true) }},
		{"an insert colliding with a run's top", func() { w.after(chain[last-3], d) }},
		{"an insert colliding with a run's last member", func() { w.after(chain[last-1], d) }},
		{"a reservation through a run", func() {
			for _, tr := range w.trees() {
				if err := tr.Reserve(node(13), 3); err != nil {
					w.fatalf("reserve through a run: %v", err)
				}
			}
		}},
		{"a flatten inside a run and above another", func() { w.flatten(node(last - 4)) }},
		{"a flatten at a run's top", func() { w.flatten(node(15)) }},
	} {
		if j, k := w.real.RunMember(node(15)); step.what == "a flatten at a run's top" && (k == 0 || j != 0) {
			w.fatalf("member 15 is member %d of a run of %d", j, k)
		}
		step.fn()
		w.settle()
		w.met[step.what]++
	}
}

// TestTombMatchesRecord replays seeded scripts — the set-up above, then
// remote inserts beside and below live atoms and tombstones, reservations
// below them, local insert runs whose allocation may collide with a tomb
// and whose slots may name solos, local and remote deletes,
// duplicate deletes, re-delivered inserts of deleted atoms, cold, chosen
// and whole-document flattens and snapshot round trips — on a tree whose
// lone counter-0 minis, live or dead, are held in their nodes and a twin
// whose minis are all records, in SDIS and in UDIS, whose counters keep
// every mini but a flattened region's canonical ones a record. In SDIS a
// chain of one site's tombs is held as runs, which the set-up fills to
// their longest and splits every way a walk can, and which the random
// steps meet at their upper and last members.
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
					w.local(w.rng.Intn(n+1), 1+w.rng.Intn(3), w.dis())
				case r < 32: // a site deletes an atom and types at its gap again
					i := w.rng.Intn(n)
					d := w.ids[i].Last().Dis
					if w.remove(i, true); mode == ident.UDIS || d.IsCanonical() {
						d = w.dis()
					}
					w.settle()
					w.local(i, 1, d)
				case r < 46:
					w.remote()
				case r < 50:
					w.reserve()
				case r < 70:
					w.remove(w.rng.Intn(n), w.rng.Intn(2) == 0)
				case r < 78:
					if len(w.dead) > 0 {
						w.redelete(w.pickDead())
					}
				case r < 82:
					if len(w.dead) > 0 {
						w.insert(w.pickDead(), true)
					}
				case r < 88:
					if cold := w.real.ColdestSubtree(w.real.Rev()-2, 2, mode == ident.UDIS); cold != nil {
						w.flatten(cold)
						met["cold flatten"]++
					}
				case r < 94: // flatten the node of a live atom's or a run's tomb's ancestor
					id := w.ids[w.rng.Intn(n)]
					if len(w.dead) > 0 && w.rng.Intn(2) == 0 {
						if q := w.pickDead(); w.inRun(q) != "" {
							id = q
						}
					}
					region := id.StripLastDis()[:1+w.rng.Intn(len(id))]
					region[len(region)-1] = ident.J(region[len(region)-1].Bit)
					if run := w.inRun(region); run != "" {
						met["flatten at"+run]++
					}
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
				if live, dead := w.real.Solos(); live > 0 && dead > 0 {
					met["steps with a live solo and a tomb"]++
				}
			}
		}
		t.Logf("%v: %v", mode, met)
		if mode == ident.UDIS {
			continue
		}
		for what, least := range map[string]int{
			"steps with a live solo and a tomb": seeds * steps / 2, "steps the tree held fewer mini records": seeds * steps / 2,
			"tomb made": 100, "solo built back by an insert": 20, "tomb revived": 5, "tomb deleted again": 20,
			"a sibling at a live solo": 10, "a child below a live solo": 10, "a sibling at a tomb": 5, "a child below a tomb": 5,
			"reserve below a solo from the walk cache": 10, "run slot named a solo": 20,
			"allocation collided with a tomb": 5, "cold flatten": 5, "chosen flatten": 5, "whole-document flatten": 2, "round trip": 5,
			"steps with a run": seeds * steps / 10, "steps with a run at its longest": seeds, "scans from a run's tomb": 100,
			"allocation collided with a run's upper member": seeds, "allocation collided with a run's last member": seeds,
			"revived a run's upper member": seeds, "deleted again at a run's upper member": seeds,
			"a node on a run member's free side": seeds, "a sibling at a run member": seeds, "a reservation through a run": seeds,
			"a flatten inside a run and above another": seeds, "a flatten at a run's top": seeds,
		} {
			if met[what] < least {
				t.Errorf("%v: the scripts no longer exercise the solos and runs: %q %d times, want %d", mode, what, met[what], least)
			}
		}
	}
}

// TestCheckRefusesBrokenTomb: Check catches each way a solo flag, a solo's
// atom handle, a hasEmpty bit or a run can disagree with the tree. A run's
// shape must hold 2 to MaxRun members and no side bit past them; it is a
// solo tomb, so on the root, a flat node, a node of minis or a live solo
// it breaks what a solo must be; and its one stamp stands for all its
// members' only while no stamp is after the revision clock.
func TestCheckRefusesBrokenTomb(t *testing.T) {
	solo := func(atom string) func(*doctree.Tree, ident.Path) {
		return func(tr *doctree.Tree, node ident.Path) {
			var h uint32
			switch atom {
			case "":
			case "out of range":
				h = 1 << 20
			default:
				h = tr.AtomHandle(ident.MustParsePath(atom))
			}
			tr.SetSolo(node, h)
		}
	}
	bit := func(on bool) func(*doctree.Tree, ident.Path) {
		return func(tr *doctree.Tree, node ident.Path) {
			if tr.HasEmpty(node) == on {
				t.Fatalf("%v has the bit %v already", node, on)
			}
			tr.SetHasEmpty(node, on)
		}
	}
	run := func(count int, sides uint32) func(*doctree.Tree, ident.Path) {
		return func(tr *doctree.Tree, node ident.Path) { tr.SetRun(node, count, sides) }
	}
	// A run of three tombs at node 1, turning left then right, above a
	// live atom.
	chain := []string{"[(1:s1)]", "[1(0:s1)]", "[10(1:s1)]", "[101(1:s2)]", "-[(1:s1)]", "-[10(1:s1)]", "-[1(0:s1)]"}
	for _, tc := range []struct {
		name, want string
		ids        []string // applied in order: inserts, SDIS deletes marked -, reservations marked +
		node       string   // the node damaged
		flatten    bool
		damage     func(*doctree.Tree, ident.Path)
	}{
		{"a run of one tomb", "broken run", chain, "[1]", false, run(1, 0)},
		{"a run past its longest", "broken run", chain, "[1]", false, run(doctree.MaxRun+1, 0)},
		{"a run's side bit past its members", "broken run", chain, "[1]", false, run(3, 0b110)},
		{"a run on the root", "root holds mini-nodes", chain, "[]", false, run(2, 0)},
		{"a run on a flat node", "a solo", chain, "[1]", true, run(2, 0)},
		{"a run over a node of minis", "live atoms", []string{"[(0:s1)]", "[(0:s2)]"}, "[0]", false, run(2, 0)},
		{"a run over a live solo", "live atoms", chain, "[1011]", false, run(2, 0)},
		{"a run stamped after the revision clock", "revision clock", chain, "[1]", false,
			func(tr *doctree.Tree, node ident.Path) { tr.SetStamp(node, uint32(tr.Rev())+1) }},
		{"on the root", "root holds mini-nodes", []string{"[(0:s1)]"}, "[]", false, solo("")},
		{"on a flat node", "a solo", []string{"[(0:s1)]", "[0(0:s2)]"}, "[0]", true, solo("")},
		{"over a live mini with a child", "live atoms", []string{"[(0:s1)]", "[(0:s1)(1:s2)]"}, "[0]", false, solo("")},
		// The counters agree: the mini's entry and its onMini child are
		// what the tomb leaves unreached.
		{"over a dead mini with a child", "mini-child entries",
			[]string{"[(0:s1)]", "[(0:s1)(1:s2)]", "-[(0:s1)(1:s2)]", "-[(0:s1)]"}, "[0]", false, solo("")},
		{"counted as an empty node", "hasEmpty", []string{"[0(0:s1)]"}, "[0]", false, solo("")},
		{"with a non-zero counter", "reached", []string{"[(0:c5s1)]", "-[(0:c5s1)]"}, "[0]", false, solo("")},
		{"holding an atom on a flat node", "a solo", []string{"[(0:s1)]", "[0(0:s2)]", "[(1:s3)]"}, "[0]", true, solo("[(1:s3)]")},
		{"holding a record's atom", "shared",
			[]string{"[(0:s1)]", "[(0:s1)(0:s3)]", "[(1:s2)]", "-[(1:s2)]"}, "[1]", false, solo("[(0:s1)]")},
		{"holding a free atom handle", "free", []string{"[(0:s1)]", "[(1:s2)]", "-[(0:s1)]"}, "[0]", false,
			func(tr *doctree.Tree, node ident.Path) { tr.SetSolo(node, tr.FreeAtomHandle()) }},
		{"holding an atom handle out of range", "out of range", []string{"[(0:s1)]", "-[(0:s1)]"}, "[0]", false, solo("out of range")},
		{"bit set over no empty node", "hasEmpty", []string{"[(0:s1)]", "[0(1:s2)]"}, "[0]", false, bit(true)},
		{"bit clear over a reserved node", "hasEmpty", []string{"[(1:s1)]", "+[1(0:s2)0]"}, "[10]", false, bit(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := doctree.New()
			for _, id := range tc.ids {
				var err error
				if s, ok := strings.CutPrefix(id, "-"); ok {
					_, err = tr.DeleteID(ident.MustParsePath(s), false)
				} else if s, ok := strings.CutPrefix(id, "+"); ok {
					err = tr.Reserve(ident.MustParsePath(s), 3)
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
			if tc.damage(tr, node); tr.Check() == nil {
				t.Fatalf("Check accepts the damage")
			}
			if err := tr.Check(); !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Check = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}
