package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/treedoc/treedoc/internal/ident"
)

// TestDensityProperty: every strategy must allocate strictly between the
// neighbours at any gap, for documents built by random editing — with
// InsertAt and with InsertRunAt runs, whose identifiers must also ascend.
// Nothing in Document re-checks an allocation, so this is the check.
func TestDensityProperty(t *testing.T) {
	for _, strat := range []Strategy{Naive{}, Balanced{}} {
		strat := strat
		t.Run(strat.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			d := newDoc(t, 1, func(c *Config) { c.Strategy = strat })
			idAt := func(i int) ident.Path {
				if i < 0 || i >= d.Len() {
					return nil // a document end
				}
				id, err := d.IDAt(i)
				if err != nil {
					t.Fatal(err)
				}
				return id
			}
			for step := 0; step < 1500; step++ {
				n := d.Len()
				switch r := rng.Intn(100); {
				case n == 0 || r < 65:
					gap := rng.Intn(n + 1)
					atoms := make([]string, 1)
					if r%4 == 0 {
						atoms = make([]string, 2+rng.Intn(2))
					}
					for j := range atoms {
						atoms[j] = fmt.Sprintf("a%d.%d", step, j)
					}
					p, f := idAt(gap-1), idAt(gap)
					var ops []Op
					var err error
					if len(atoms) == 1 {
						var op Op
						op, err = d.InsertAt(gap, atoms[0])
						ops = []Op{op}
					} else {
						ops, err = d.InsertRunAt(gap, atoms)
					}
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for j, op := range ops {
						id := op.ID.AppendPath(nil)
						if !ident.Between(p, id, f) {
							t.Fatalf("step %d: atom %d of %d at gap %d got %v, not strictly between %v and %v", step, j, len(ops), gap, id, p, f)
						}
						p = id
						if a, err := d.AtomAt(gap + j); err != nil || a != atoms[j] {
							t.Fatalf("step %d: atom at %d = %q, %v; want %q", step, gap+j, a, err, atoms[j])
						}
					}
				default:
					if _, err := d.DeleteAt(rng.Intn(n)); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := d.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// happenedBeforeSchedules builds a concurrent editing history across
// replicas and replays random linearisations that respect happened-before
// (per-site order plus insert-before-delete), asserting all replicas reach
// the same final state. This is the paper's central claim: "replicas of a
// CRDT converge automatically" (Section 1).
func TestConvergenceRandomConcurrentEditing(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode ident.Mode
		str  Strategy
	}{
		{"sdis-naive", ident.SDIS, Naive{}},
		{"sdis-balanced", ident.SDIS, Balanced{}},
		{"udis-naive", ident.UDIS, Naive{}},
		{"udis-balanced", ident.UDIS, Balanced{}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const sites = 4
			const rounds = 12
			rng := rand.New(rand.NewSource(99))

			docs := make([]*Document, sites)
			for i := range docs {
				var err error
				docs[i], err = NewDocument(Config{
					Site: ident.SiteID(i + 1), Mode: tc.mode, Strategy: tc.str,
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			// history[i] = ops originated by site i, in order.
			history := make([][]Op, sites)
			// Each round: every site performs 1-3 local edits concurrently,
			// then all sites exchange and apply everything new from the
			// others (a causally consistent broadcast round).
			delivered := make([]int, sites) // per-site count each doc has seen
			for round := 0; round < rounds; round++ {
				for i, d := range docs {
					edits := 1 + rng.Intn(3)
					for e := 0; e < edits; e++ {
						if d.Len() == 0 || rng.Intn(100) < 70 {
							op, err := d.InsertAt(rng.Intn(d.Len()+1), fmt.Sprintf("s%dr%de%d", i, round, e))
							if err != nil {
								t.Fatalf("site %d round %d: %v", i, round, err)
							}
							history[i] = append(history[i], op)
						} else {
							op, err := d.DeleteAt(rng.Intn(d.Len()))
							if err != nil {
								t.Fatalf("site %d round %d: %v", i, round, err)
							}
							history[i] = append(history[i], op)
						}
					}
				}
				// Exchange: each site applies the others' new ops in a
				// different random site order (operations across sites in
				// one round are concurrent, so order must not matter).
				newCounts := make([]int, sites)
				for i := range history {
					newCounts[i] = len(history[i])
				}
				for i, d := range docs {
					order := rng.Perm(sites)
					for _, j := range order {
						if j == i {
							continue
						}
						for k := delivered[j]; k < newCounts[j]; k++ {
							if err := d.Apply(history[j][k]); err != nil {
								t.Fatalf("site %d applying %v: %v", i, history[j][k], err)
							}
						}
					}
				}
				// All docs have now seen everything up to newCounts; advance
				// the shared watermark. (Each site already has its own ops.)
				copy(delivered, newCounts)
			}
			want := docs[0].ContentString()
			for i, d := range docs {
				if got := d.ContentString(); got != want {
					t.Fatalf("site %d diverged:\n%q\nvs site 0:\n%q", i, got, want)
				}
				if err := d.Check(); err != nil {
					t.Fatalf("site %d: %v", i, err)
				}
			}
			if docs[0].Len() == 0 {
				t.Error("degenerate test: empty final document")
			}
		})
	}
}

// TestConvergencePairwisePermutation exhaustively permutes small concurrent
// op sets (3 ops from 3 sites) and checks all 6 delivery orders agree.
func TestConvergencePairwisePermutation(t *testing.T) {
	base := newDoc(t, 9)
	baseOps := buildABCDEF(t, base)

	mk := func(site ident.SiteID) *Document {
		d := newDoc(t, site)
		for _, op := range baseOps {
			if err := d.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	// Three concurrent ops from three different replicas.
	d1, d2, d3 := mk(1), mk(2), mk(3)
	op1, err := d1.InsertAt(2, "X")
	if err != nil {
		t.Fatal(err)
	}
	op2, err := d2.InsertAt(2, "Y")
	if err != nil {
		t.Fatal(err)
	}
	op3, err := d3.DeleteAt(4)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{op1, op2, op3}
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var want string
	for pi, perm := range perms {
		d := mk(ident.SiteID(10 + pi))
		for _, k := range perm {
			if err := d.Apply(ops[k]); err != nil {
				t.Fatalf("perm %v: %v", perm, err)
			}
		}
		got := docString(d)
		if pi == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("perm %v = %q, want %q", perm, got, want)
		}
	}
}
