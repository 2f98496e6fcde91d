package doctree

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

// refModel is the abstract data type of Section 2.2: a set of (atom, PosID)
// couples whose contents is the sequence of atoms ordered by PosID. The tree
// must behave identically.
type refModel struct {
	ids   []ident.Path
	atoms []string
}

func (r *refModel) insert(id ident.Path, atom string) {
	i := sort.Search(len(r.ids), func(i int) bool { return ident.Compare(r.ids[i], id) >= 0 })
	r.ids = append(r.ids, nil)
	copy(r.ids[i+1:], r.ids[i:])
	r.ids[i] = id
	r.atoms = append(r.atoms, "")
	copy(r.atoms[i+1:], r.atoms[i:])
	r.atoms[i] = atom
}

func (r *refModel) delete(id ident.Path) {
	i := sort.Search(len(r.ids), func(i int) bool { return ident.Compare(r.ids[i], id) >= 0 })
	if i < len(r.ids) && r.ids[i].Equal(id) {
		r.ids = append(r.ids[:i], r.ids[i+1:]...)
		r.atoms = append(r.atoms[:i], r.atoms[i+1:]...)
	}
}

// TestRandomOpsAgainstModel drives the tree with random inserts at random
// positions (identifiers built as random children of existing atoms) and
// random deletes, in both pruning modes, comparing content with the
// reference model and re-checking the structural invariants throughout.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, prune := range []bool{false, true} {
		prune := prune
		name := "sdis"
		if prune {
			name = "udis"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			tr := New()
			ref := &refModel{}
			var liveIDs []ident.Path
			nextSite := ident.SiteID(1)
			for step := 0; step < 2000; step++ {
				if len(liveIDs) == 0 || rng.Intn(100) < 70 {
					// Insert: pick a random gap, derive a fresh child id from a
					// neighbor (or the root for the empty doc).
					var id ident.Path
					d := ident.Dis{Site: nextSite}
					nextSite++
					if len(liveIDs) == 0 {
						id = ident.Path{ident.M(1, d)}
					} else {
						base := liveIDs[rng.Intn(len(liveIDs))]
						// Random child of base: through the mini (both bits) or
						// the node's major slot.
						switch rng.Intn(3) {
						case 0:
							id = base.Child(ident.M(0, d))
						case 1:
							id = base.Child(ident.M(1, d))
						default:
							id = base.StripLastDis().Child(ident.M(uint8(rng.Intn(2)), d))
						}
					}
					if tr.HasLive(id) {
						continue
					}
					atom := string(rune('a' + rng.Intn(26)))
					if err := tr.InsertID(id, atom); err != nil {
						t.Fatalf("step %d: insert %v: %v", step, id, err)
					}
					ref.insert(id, atom)
					liveIDs = append(liveIDs, id)
				} else {
					i := rng.Intn(len(liveIDs))
					id := liveIDs[i]
					found, err := tr.DeleteID(id, prune)
					if err != nil || !found {
						t.Fatalf("step %d: delete %v: found=%v err=%v", step, id, found, err)
					}
					ref.delete(id)
					liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
				}
				if step%97 == 0 {
					if err := tr.Check(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := tr.Check(); err != nil {
				t.Fatal(err)
			}
			got := tr.Content()
			if len(got) != len(ref.atoms) {
				t.Fatalf("content length %d, want %d", len(got), len(ref.atoms))
			}
			for i := range got {
				if got[i] != ref.atoms[i] {
					t.Fatalf("content[%d] = %q, want %q", i, got[i], ref.atoms[i])
				}
			}
			// Index round trips on the final document.
			for i := 0; i < len(got); i += 17 {
				id, err := tr.IDAt(i)
				if err != nil {
					t.Fatal(err)
				}
				if !id.Equal(ref.ids[i]) {
					t.Fatalf("IDAt(%d) = %v, want %v", i, id, ref.ids[i])
				}
				back, err := tr.IndexOfID(id)
				if err != nil || back != i {
					t.Fatalf("IndexOfID(%v) = %d, %v", id, back, err)
				}
			}
		})
	}
}

// TestRandomFlattenPreservesContent interleaves edits with flattens of cold
// subtrees and whole-document flattens, checking content preservation and
// invariants.
func TestRandomFlattenPreservesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	var live []ident.Path
	site := ident.SiteID(1)
	for step := 0; step < 1200; step++ {
		switch {
		case len(live) == 0 || rng.Intn(100) < 60:
			var id ident.Path
			d := ident.Dis{Site: site}
			site++
			if len(live) == 0 {
				id = ident.Path{ident.M(1, d)}
			} else {
				base := live[rng.Intn(len(live))]
				id = base.Child(ident.M(uint8(rng.Intn(2)), d))
			}
			if tr.HasLive(id) {
				continue
			}
			if err := tr.InsertID(id, "x"); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live, id)
		case rng.Intn(100) < 80:
			i := rng.Intn(len(live))
			if _, err := tr.DeleteID(live[i], false); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			before := tr.Content()
			if err := tr.FlattenAll(); err != nil {
				t.Fatalf("step %d: flatten: %v", step, err)
			}
			after := tr.Content()
			if len(before) != len(after) {
				t.Fatalf("step %d: flatten changed length %d -> %d", step, len(before), len(after))
			}
			// All identifiers renamed: rebuild the live set canonically.
			live = live[:0]
			for i := range after {
				id, err := tr.IDAt(i)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
			// Re-inserts after flatten need fresh non-colliding ids; site
			// counter keeps growing so collisions cannot happen.
		}
		if step%101 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestNeighborLookupsAgainstIDAt drives a random document and checks the
// fused lookup paths — AppendIDAt's build-during-descent and
// AppendNeighborIDs' shared-prefix split — against the plain IDAt walk at
// every interior gap, interleaved with deletes so walk-cache resumption and
// pruned chains are exercised too.
func TestNeighborLookupsAgainstIDAt(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	var liveIDs []ident.Path
	nextSite := ident.SiteID(1)
	for step := 0; step < 600; step++ {
		if len(liveIDs) == 0 || rng.Intn(100) < 75 {
			var id ident.Path
			d := ident.Dis{Site: nextSite}
			nextSite++
			if len(liveIDs) == 0 {
				id = ident.Path{ident.M(1, d)}
			} else {
				base := liveIDs[rng.Intn(len(liveIDs))]
				switch rng.Intn(3) {
				case 0:
					id = base.Child(ident.M(0, d))
				case 1:
					id = base.Child(ident.M(1, d))
				default:
					id = base.StripLastDis().Child(ident.M(uint8(rng.Intn(2)), d))
				}
			}
			if tr.HasLive(id) {
				continue
			}
			if err := tr.InsertID(id, "x"); err != nil {
				t.Fatalf("step %d: insert %v: %v", step, id, err)
			}
			liveIDs = append(liveIDs, id)
		} else {
			i := rng.Intn(len(liveIDs))
			if _, err := tr.DeleteID(liveIDs[i], true); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			liveIDs = append(liveIDs[:i], liveIDs[i+1:]...)
		}
		if step%31 != 0 {
			continue
		}
		for i := 0; i < tr.Len(); i++ {
			want, err := tr.IDAt(i)
			if err != nil {
				t.Fatal(err)
			}
			got, at, err := tr.AppendIDAt(nil, i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("step %d: AppendIDAt(%d) = %v, want %v", step, i, got, want)
			}
			if at != (Slot{routeSlot(tr, got), len(got)}) {
				t.Fatalf("step %d: AppendIDAt(%d) slot %v is not where %v lies", step, i, at, got)
			}
			if i > 0 {
				wantP, err := tr.IDAt(i - 1)
				if err != nil {
					t.Fatal(err)
				}
				p, f, g, err := tr.AppendNeighborIDs(nil, nil, i)
				if err != nil {
					t.Fatal(err)
				}
				if !p.Equal(wantP) || !f.Equal(want) {
					t.Fatalf("step %d: AppendNeighborIDs(%d) = %v, %v; want %v, %v", step, i, p, f, wantP, want)
				}
				if g.P != (Slot{routeSlot(tr, p), len(p)}) || g.F != (Slot{routeSlot(tr, f), len(f)}) {
					t.Fatalf("step %d: AppendNeighborIDs(%d) slots %v, %v are not where %v, %v lie", step, i, g.P, g.F, p, f)
				}
			}
		}
	}
}

// TestSlabHandlesNeverDangling runs a random schedule of inserts, deletes
// (tombstoning and pruning), subtree and whole-document flattens, explodes
// and reserves, and after every step sweeps the tree: no handle reachable
// from the root may be on a free list (a released record can be handed out
// again, so a dangling handle would silently alias another node), and Check
// must pass.
func TestSlabHandlesNeverDangling(t *testing.T) {
	rng := rand.New(rand.NewSource(2009))
	tr := New()
	var live []ident.Path
	relist := func() { // after a flatten renamed identifiers
		live = live[:0]
		for i := 0; i < tr.Len(); i++ {
			id, err := tr.IDAt(i) // explodes what it walks into
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
	}
	site := ident.SiteID(1)
	sawFree := false // some step left records of both kinds on the free lists
	for step := 0; step < 1500; step++ {
		switch r := rng.Intn(100); {
		case len(live) == 0 || r < 55:
			d := ident.Dis{Site: site}
			site++
			id := ident.Path{ident.M(uint8(rng.Intn(2)), d)}
			if len(live) > 0 {
				base := live[rng.Intn(len(live))]
				if rng.Intn(3) == 0 {
					base = base.StripLastDis()
				}
				id = base.Child(ident.M(uint8(rng.Intn(2)), d))
			}
			if tr.HasLive(id) {
				continue
			}
			if err := tr.InsertID(id, "x"); err != nil {
				t.Fatalf("step %d: insert %v: %v", step, id, err)
			}
			live = append(live, id)
		case r < 85:
			i := rng.Intn(len(live))
			if _, err := tr.DeleteID(live[i], rng.Intn(2) == 0); err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			live = append(live[:i], live[i+1:]...)
		case r < 90:
			if err := tr.Reserve(live[rng.Intn(len(live))].StripLastDis(), 1+rng.Intn(3)); err != nil {
				t.Fatalf("step %d: reserve: %v", step, err)
			}
		case r < 97:
			tr.AdvanceRev()
			if cold := tr.ColdestSubtree(tr.Rev()-1-int64(rng.Intn(3)), 2, false); cold != nil {
				if err := tr.Flatten(cold); err != nil {
					t.Fatalf("step %d: flatten %v: %v", step, cold, err)
				}
				relist()
			}
		default:
			if err := tr.FlattenAll(); err != nil {
				t.Fatalf("step %d: flatten all: %v", step, err)
			}
			relist()
		}
		checkNoDangling(t, tr)
		if err := tr.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sawFree = sawFree || (tr.nodes.nfree > 0 && tr.minis.nfree > 0)
	}
	if !sawFree {
		t.Error("schedule never exercised the free lists")
	}
}

// bruteCount recounts h's subtree from the records alone: its nodes
// (neither the root nor a flattened region counts itself, as Stats does),
// live atoms, dead minis and latest lastMod stamp.
func bruteCount(tr *Tree, h nodeH) (nodes, live, dead int, maxRev int64) {
	if h == 0 {
		return 0, 0, 0, 0
	}
	n := tr.node(h)
	if n.flat {
		return 0, len(tr.flats[h]), 0, int64(n.lastMod)
	}
	if h != rootH {
		nodes = 1
	}
	maxRev = int64(n.lastMod)
	kids := []nodeH{n.kids[0], n.kids[1]}
	for mh := n.first; mh != 0; mh = tr.mini(mh).next {
		m := tr.mini(mh)
		if m.atom == 0 {
			dead++
		} else {
			live++
		}
		kids = append(kids, m.kids[0], m.kids[1])
	}
	for _, k := range kids {
		kn, kl, kd, kr := bruteCount(tr, k)
		nodes, live, dead, maxRev = nodes+kn, live+kl, dead+kd, max(maxRev, kr)
	}
	return nodes, live, dead, maxRev
}

// coldOracle is ColdestSubtree by exhaustion: every node is recounted on
// its own, a qualifying node hides its descendants (its score dominates
// theirs), and the first of the highest score in infix order wins.
func coldOracle(tr *Tree, cutoff int64, minNodes int, liveOnly bool) ident.Path {
	var best nodeH
	bestScore := -1
	var visit func(h nodeH)
	visit = func(h nodeH) {
		if h == 0 || tr.node(h).flat {
			return
		}
		nodes, live, dead, maxRev := bruteCount(tr, h)
		if maxRev <= cutoff && nodes >= minNodes && (live >= 1 || !liveOnly && dead >= 1) {
			if score := 8*dead + nodes; score > bestScore {
				best, bestScore = h, score
			}
			return
		}
		n := tr.node(h)
		visit(n.kids[0])
		for mh := n.first; mh != 0; mh = tr.mini(mh).next {
			visit(tr.mini(mh).kids[0])
			visit(tr.mini(mh).kids[1])
		}
		visit(n.kids[1])
	}
	visit(rootH)
	if best == 0 {
		return nil
	}
	return tr.pathTo(best)
}

// TestColdestSubtreeAgainstOracle: the tree keeps no node or tombstone
// counts, so ColdestSubtree and Stats sum them in their own walks. Over
// random edit, delete, reserve, flatten and explode schedules under both
// delete semantics, both must agree with a from-scratch recount.
func TestColdestSubtreeAgainstOracle(t *testing.T) {
	for _, prune := range []bool{false, true} {
		rng := rand.New(rand.NewSource(1729))
		tr := New()
		var live []ident.Path
		relist := func() {
			live = live[:0]
			for i := 0; i < tr.Len(); i++ {
				id, err := tr.IDAt(i)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
		}
		site := ident.SiteID(1)
		for step := 0; step < 700; step++ {
			switch r := rng.Intn(100); {
			case len(live) == 0 || r < 55:
				id := ident.Path{ident.M(uint8(rng.Intn(2)), ident.Dis{Site: site})}
				if len(live) > 0 {
					base := live[rng.Intn(len(live))]
					if rng.Intn(3) == 0 {
						base = base.StripLastDis()
					}
					id = base.Child(ident.M(uint8(rng.Intn(2)), ident.Dis{Site: site}))
				}
				site++
				if err := tr.InsertID(id, "x"); err != nil {
					t.Fatalf("step %d: insert %v: %v", step, id, err)
				}
				live = append(live, id)
			case r < 82:
				i := rng.Intn(len(live))
				if _, err := tr.DeleteID(live[i], prune); err != nil {
					t.Fatalf("step %d: delete: %v", step, err)
				}
				live = append(live[:i], live[i+1:]...)
			case r < 86:
				if err := tr.Reserve(live[rng.Intn(len(live))].StripLastDis(), 1+rng.Intn(2)); err != nil {
					t.Fatalf("step %d: reserve: %v", step, err)
				}
			case r < 90:
				if _, err := tr.IDAt(rng.Intn(len(live))); err != nil { // explodes what it walks into
					t.Fatalf("step %d: explode: %v", step, err)
				}
			case r < 99:
				tr.AdvanceRev()
				if cold := tr.ColdestSubtree(tr.Rev()-1-int64(rng.Intn(3)), 2, prune); cold != nil {
					if err := tr.Flatten(cold); err != nil {
						t.Fatalf("step %d: flatten %v: %v", step, cold, err)
					}
					relist()
				}
			default:
				if err := tr.FlattenAll(); err != nil {
					t.Fatalf("step %d: flatten all: %v", step, err)
				}
				relist()
			}
			nodes, liveN, dead, _ := bruteCount(tr, rootH)
			if s := tr.Stats(ident.PaperCost(ident.SDIS)); s.Nodes != nodes || s.LiveAtoms != liveN || s.DeadMinis != dead {
				t.Fatalf("prune=%v step %d: Stats nodes/live/dead = %d/%d/%d, recount %d/%d/%d",
					prune, step, s.Nodes, s.LiveAtoms, s.DeadMinis, nodes, liveN, dead)
			}
			for k := 0; k < 4; k++ {
				cutoff, minNodes, liveOnly := rng.Int63n(tr.Rev()+1), 1+rng.Intn(4), rng.Intn(2) == 0
				got, want := tr.ColdestSubtree(cutoff, minNodes, liveOnly), coldOracle(tr, cutoff, minNodes, liveOnly)
				if (got == nil) != (want == nil) || !got.Equal(want) {
					t.Fatalf("prune=%v step %d: ColdestSubtree(%d, %d, %v) = %v, oracle %v",
						prune, step, cutoff, minNodes, liveOnly, got, want)
				}
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}
