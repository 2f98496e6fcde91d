package core

import (
	"errors"
	"maps"
	"math/bits"
	"testing"

	"github.com/treedoc/treedoc/internal/doctree"
	"github.com/treedoc/treedoc/internal/ident"
)

func TestNewDocumentValidation(t *testing.T) {
	if _, err := NewDocument(Config{Site: 0}); err == nil {
		t.Error("site 0 accepted")
	}
	if _, err := NewDocument(Config{Site: ident.MaxSiteID + 1}); err == nil {
		t.Error("oversized site accepted")
	}
	d, err := NewDocument(Config{Site: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := d.Config()
	if cfg.Mode != ident.SDIS {
		t.Errorf("default mode = %v, want SDIS", cfg.Mode)
	}
	if cfg.Strategy == nil || cfg.Strategy.Name() != "balanced" {
		t.Errorf("default strategy = %v, want balanced", cfg.Strategy)
	}
	if cfg.Cost != ident.PaperCost(ident.SDIS) {
		t.Errorf("default cost = %+v", cfg.Cost)
	}
	if d.Site() != 1 {
		t.Errorf("Site = %d", d.Site())
	}
}

func TestInsertDeleteRoundTrip(t *testing.T) {
	d := newDoc(t, 1)
	buildABCDEF(t, d)
	op, err := d.DeleteAt(2) // delete c
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpDelete {
		t.Errorf("op kind = %v", op.Kind)
	}
	if got := docString(d); got != "abdef" {
		t.Errorf("document = %q", got)
	}
	if _, err := d.DeleteAt(10); err == nil {
		t.Error("out-of-range delete succeeded")
	}
	if _, err := d.InsertAt(-1, "x"); err == nil {
		t.Error("negative-index insert succeeded")
	}
	a, err := d.AtomAt(0)
	if err != nil || a != "a" {
		t.Errorf("AtomAt(0) = %q, %v", a, err)
	}
	if _, err := d.IDAt(0); err != nil {
		t.Errorf("IDAt: %v", err)
	}
	if d.ContentString() != "a\nb\nd\ne\nf" {
		t.Errorf("ContentString = %q", d.ContentString())
	}
}

// TestCommutativity checks the CRDT property directly (Section 2.2): any two
// concurrent operations applied in either order leave identical states.
func TestCommutativity(t *testing.T) {
	base := newDoc(t, 1)
	ops := buildABCDEF(t, base)

	// Two fresh replicas that have seen the base history.
	mk := func(site ident.SiteID) *Document {
		d := newDoc(t, site)
		for _, op := range ops {
			if err := d.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	a, b := mk(7), mk(9)
	opA, err := a.InsertAt(3, "X")
	if err != nil {
		t.Fatal(err)
	}
	opB, err := b.DeleteAt(1)
	if err != nil {
		t.Fatal(err)
	}

	// Replay both ops in both orders on fresh replicas.
	r1, r2 := mk(11), mk(12)
	for _, op := range []Op{opA, opB} {
		if err := r1.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range []Op{opB, opA} {
		if err := r2.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if docString(r1) != docString(r2) {
		t.Errorf("orders diverge: %q vs %q", docString(r1), docString(r2))
	}
	if docString(r1) != "acXdef" {
		t.Errorf("converged state = %q, want acXdef", docString(r1))
	}
}

// TestConcurrentDeletesIdempotent: concurrent deletes of the same atom
// commute ("the delete operation is idempotent", Section 2.2).
func TestConcurrentDeletesIdempotent(t *testing.T) {
	for _, mode := range []ident.Mode{ident.SDIS, ident.UDIS} {
		t.Run(mode.String(), func(t *testing.T) {
			setMode := func(c *Config) { c.Mode = mode }
			a := newDoc(t, 1, setMode)
			ops := buildABCDEF(t, a)
			b := newDoc(t, 2, setMode)
			for _, op := range ops {
				if err := b.Apply(op); err != nil {
					t.Fatal(err)
				}
			}
			delA, err := a.DeleteAt(2)
			if err != nil {
				t.Fatal(err)
			}
			delB, err := b.DeleteAt(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Apply(delB); err != nil {
				t.Fatal(err)
			}
			if err := b.Apply(delA); err != nil {
				t.Fatal(err)
			}
			if docString(a) != "abdef" || docString(b) != "abdef" {
				t.Errorf("states: %q, %q", docString(a), docString(b))
			}
		})
	}
}

func TestUDISDiscardsImmediately(t *testing.T) {
	d := newDoc(t, 1, withUDIS)
	buildABCDEF(t, d)
	for i := 5; i >= 3; i-- {
		if _, err := d.DeleteAt(i); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.Tree.DeadMinis != 0 {
		t.Errorf("UDIS kept %d tombstones", s.Tree.DeadMinis)
	}
	if s.Mode != ident.UDIS {
		t.Errorf("stats mode = %v", s.Mode)
	}
	// SDIS keeps them.
	e := newDoc(t, 1)
	buildABCDEF(t, e)
	for i := 5; i >= 3; i-- {
		if _, err := e.DeleteAt(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Tree.DeadMinis; got != 3 {
		t.Errorf("SDIS tombstones = %d, want 3", got)
	}
}

// TestSDISNeverRevivesTombstones is the regression test for identifier
// reuse: under SDIS the disambiguator is just the site, so re-inserting at
// the same gap would re-mint the tombstone's identifier unless allocation
// treats tombstones as used. Reuse would break commutativity with deletes
// concurrent to the second insert.
func TestSDISNeverRevivesTombstones(t *testing.T) {
	for _, strat := range []Strategy{Naive{}, Balanced{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			d := newDoc(t, 1, func(c *Config) { c.Strategy = strat })
			buildABCDEF(t, d)
			seen := map[string]bool{}
			// Insert/delete repeatedly at the same gap: every id must be new.
			for round := 0; round < 10; round++ {
				op, err := d.InsertAt(3, "X")
				if err != nil {
					t.Fatal(err)
				}
				key := op.ID.String()
				if seen[key] {
					t.Fatalf("round %d: identifier %s reused", round, key)
				}
				seen[key] = true
				if _, err := d.DeleteAt(3); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Check(); err != nil {
				t.Fatal(err)
			}
			// The commutativity scenario end-to-end: a concurrent delete of
			// the tombstoned id must not kill the re-inserted atom.
			s := d.Stats()
			if s.Tree.DeadMinis != 10 {
				t.Errorf("tombstones = %d, want 10", s.Tree.DeadMinis)
			}
		})
	}
}

// TestSDISAppendAfterTrailingTombstones: delete the tail then append; the
// new atom's identifier must not collide with the trailing tombstones.
func TestSDISAppendAfterTrailingTombstones(t *testing.T) {
	d := newDoc(t, 1)
	buildABCDEF(t, d)
	for i := 5; i >= 3; i-- {
		if _, err := d.DeleteAt(i); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		op, err := d.InsertAt(3+i, "n")
		if err != nil {
			t.Fatal(err)
		}
		if seen[op.ID.String()] {
			t.Fatalf("identifier %s reused", op.ID)
		}
		seen[op.ID.String()] = true
	}
	if got := docString(d); got != "abcnnnnn" {
		t.Errorf("doc = %q", got)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestUDISCounterMakesFreshIDs(t *testing.T) {
	d := newDoc(t, 1, withUDIS)
	op1, err := d.InsertAt(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	op2, err := d.InsertAt(0, "y")
	if err != nil {
		t.Fatal(err)
	}
	if op1.ID == op2.ID {
		t.Errorf("identifier %v reused after discard (UDIS must mint fresh)", op1.ID)
	}
}

func TestInsertRunAt(t *testing.T) {
	for _, strat := range []Strategy{Naive{}, Balanced{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			d := newDoc(t, 1, func(c *Config) { c.Strategy = strat })
			opH, err := d.InsertAt(0, "H")
			if err != nil {
				t.Fatal(err)
			}
			opT, err := d.InsertAt(1, "T")
			if err != nil {
				t.Fatal(err)
			}
			atoms := []string{"1", "2", "3", "4", "5", "6", "7"}
			ops, err := d.InsertRunAt(1, atoms)
			if err != nil {
				t.Fatal(err)
			}
			if len(ops) != len(atoms) {
				t.Fatalf("ops = %d", len(ops))
			}
			if got := docString(d); got != "H1234567T" {
				t.Errorf("document = %q", got)
			}
			if err := d.Check(); err != nil {
				t.Fatal(err)
			}
			// The run's ops replay independently and in any order: apply
			// them reversed on a second replica.
			e := newDoc(t, 2)
			for _, op := range []Op{opH, opT} {
				if err := e.Apply(op); err != nil {
					t.Fatal(err)
				}
			}
			for i := len(ops) - 1; i >= 0; i-- {
				if err := e.Apply(ops[i]); err != nil {
					t.Fatal(err)
				}
			}
			if docString(e) != docString(d) {
				t.Errorf("replayed replica = %q, want %q", docString(e), docString(d))
			}
			// The balanced run packs into a minimal complete subtree: the
			// depth spread across the run is at most ⌈log2(n+1)⌉-1 = 2 for
			// n=7 (the naive chain spreads n-1 = 6 levels).
			minLen, maxLen := 1<<30, 0
			for _, op := range ops {
				if op.ID.Len() > maxLen {
					maxLen = op.ID.Len()
				}
				if op.ID.Len() < minLen {
					minLen = op.ID.Len()
				}
			}
			spread := maxLen - minLen
			if strat.Name() == "balanced" && spread > 2 {
				t.Errorf("balanced run depth spread = %d, want <= 2", spread)
			}
			if strat.Name() == "naive" && spread != len(atoms)-1 {
				t.Errorf("naive run depth spread = %d, want %d", spread, len(atoms)-1)
			}
		})
	}
}

func TestInsertRunEmpty(t *testing.T) {
	d := newDoc(t, 1)
	ops, err := d.InsertRunAt(0, nil)
	if err != nil || ops != nil {
		t.Errorf("empty run: %v, %v", ops, err)
	}
}

func TestFlattenPolicyEndRevision(t *testing.T) {
	d := newDoc(t, 1, func(c *Config) {
		c.Flatten = FlattenPolicy{Interval: 2, ColdRevisions: 0, MinNodes: 1}
	})
	buildABCDEF(t, d)
	// Revision 1: no flatten (interval 2).
	if got := d.EndRevision(); got != nil {
		t.Errorf("rev 1 flattened %v", got)
	}
	// Edit something so revision 2 has a hot region; the cold remainder
	// should flatten.
	if _, err := d.InsertAt(6, "g"); err != nil {
		t.Fatal(err)
	}
	cold := d.EndRevision()
	if cold == nil {
		t.Fatal("rev 2 flattened nothing")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.Revision() != 2 {
		t.Errorf("revision = %d", d.Revision())
	}
	if got := docString(d); got != "abcdefg" {
		t.Errorf("document = %q", got)
	}
	if d.Stats().Tree.FlatAtoms == 0 {
		t.Error("no atoms in flat storage after heuristic flatten")
	}
}

func TestFlattenAllZeroOverhead(t *testing.T) {
	d := newDoc(t, 1)
	buildABCDEF(t, d)
	if _, err := d.DeleteAt(0); err != nil {
		t.Fatal(err)
	}
	if err := d.FlattenAll(); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Tree.MemBytes != 0 || s.Tree.Nodes != 0 {
		t.Errorf("flattened doc: mem=%d nodes=%d, want zero overhead", s.Tree.MemBytes, s.Tree.Nodes)
	}
	if docString(d) != "bcdef" {
		t.Errorf("document = %q", docString(d))
	}
	// ColdestSubtree on a flat doc finds nothing.
	if got := d.ColdestSubtree(0, 1); got != nil {
		t.Errorf("cold subtree on flat doc: %v", got)
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath("[10(0:s3)]")), Atom: "hello world", Site: 3, Seq: 42},
		{Kind: OpDelete, ID: ident.Pack(ident.MustParsePath("[(1:c7s9)]")), Site: 9, Seq: 1},
		{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath("[(0:⊥)]")), Atom: "", Site: 1, Seq: 0},
	}
	for _, op := range ops {
		data, err := op.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Op
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %v: %v", op, err)
		}
		if got.Kind != op.Kind || got.ID != op.ID || got.Atom != op.Atom ||
			got.Site != op.Site || got.Seq != op.Seq {
			t.Errorf("round trip %v -> %v", op, got)
		}
	}
}

func TestOpCodecErrors(t *testing.T) {
	if _, _, err := DecodeOp(nil); err == nil {
		t.Error("empty buffer decoded")
	}
	op := Op{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath("[(1:s1)]")), Atom: "abc", Site: 1, Seq: 1}
	data := op.AppendBinary(nil)
	for cut := 1; cut < len(data); cut++ {
		if _, _, err := DecodeOp(data[:cut]); err == nil {
			t.Errorf("truncated op at %d decoded", cut)
		}
	}
	var o Op
	if err := o.UnmarshalBinary(append(data, 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
	bad := Op{Kind: 9, ID: ident.Pack(ident.MustParsePath("[(1:s1)]")), Site: 1}
	if err := bad.Validate(); err == nil {
		t.Error("bad kind validated")
	}
	del := Op{Kind: OpDelete, ID: ident.Pack(ident.MustParsePath("[(1:s1)]")), Atom: "x", Site: 1}
	if err := del.Validate(); err == nil {
		t.Error("delete with atom validated")
	}
}

func TestOpNetworkBits(t *testing.T) {
	c := ident.PaperCost(ident.SDIS)
	ins := Op{Kind: OpInsert, ID: ident.Pack(ident.MustParsePath("[10(0:s3)]")), Atom: "ab"}
	if got := ins.NetworkBits(c); got != 3+48+16 {
		t.Errorf("insert bits = %d, want %d", got, 3+48+16)
	}
	del := Op{Kind: OpDelete, ID: ident.Pack(ident.MustParsePath("[10(0:s3)]"))}
	if got := del.NetworkBits(c); got != 3+48 {
		t.Errorf("delete bits = %d, want %d", got, 3+48)
	}
}

func TestApplyRejectsInvalid(t *testing.T) {
	d := newDoc(t, 1)
	if err := d.Apply(Op{Kind: OpInsert, Site: 1}); err == nil {
		t.Error("op with empty id applied")
	}
	// Duplicate insert of the same identifier must fail loudly.
	op, err := d.InsertAt(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(op); err == nil {
		t.Error("duplicate insert applied")
	}
}

func TestStatsAccounting(t *testing.T) {
	d := newDoc(t, 1)
	buildABCDEF(t, d)
	s := d.Stats()
	if s.OpsApplied != 6 {
		t.Errorf("ops applied = %d", s.OpsApplied)
	}
	if s.NetBits == 0 {
		t.Error("network bits not accounted")
	}
	if s.Strategy != "naive" {
		t.Errorf("strategy = %q", s.Strategy)
	}
}

// TestRefusedLocalInsertChangesNothing fills a replica's site table with
// 65,535 remote writers, so the replica's own site has no room: a refused
// InsertAt, InsertRunAt or Splice leaves its sequence number, version and
// tree as they were, and its next operation is its first. Every node of
// the complete tree of depth 16 holds an atom, so no insert finds a free
// slot and one at the end grows the tree under balanced allocation.
func TestRefusedLocalInsertChangesNothing(t *testing.T) {
	d, err := NewDocument(Config{Site: 1 << 20, Strategy: Balanced{}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n < 1<<17; n++ {
		// Node n of the complete tree, numbered from the root's 1 with
		// children 2n and 2n+1, holds writer w's atom number seq.
		w, seq := ident.SiteID(n/2), uint64(n%2+1)
		var id ident.Path
		for b := bits.Len(uint(n)) - 2; b >= 0; b-- {
			id = append(id, ident.J(uint8(n>>b&1)))
		}
		id = append(id, ident.M(0, ident.Dis{Site: w}))
		if err := d.Apply(Op{Kind: OpInsert, ID: ident.Pack(id), Atom: "x", Site: w, Seq: seq}); err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	seq, version, tree := d.Seq(), d.Version(), d.Stats().Tree
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, doctree.ErrFull) {
			t.Fatalf("%s by a site the full table lacks: %v, want ErrFull", what, err)
		}
		if d.Seq() != seq || !maps.Equal(d.Version(), version) || d.Stats().Tree != tree {
			t.Fatalf("after the refused %s: seq %d (want %d), version unchanged %v, tree %+v (want %+v)",
				what, d.Seq(), seq, maps.Equal(d.Version(), version), d.Stats().Tree, tree)
		}
	}
	for _, i := range []int{0, 1, d.Len() / 2, d.Len()} { // the last deepens the tree: a balanced growth
		_, err := d.InsertAt(i, "y")
		refused("insert", err)
	}
	_, err = d.InsertRunAt(5, []string{"a", "b", "c"})
	refused("run", err)
	_, err = d.Splice(7, 2, []string{"a", "b"})
	refused("splice", err)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	op, err := d.DeleteAt(0)
	if err != nil {
		t.Fatal(err)
	}
	if op.Seq != 1 {
		t.Fatalf("the replica's first operation carries Seq %d, want 1", op.Seq)
	}
}
