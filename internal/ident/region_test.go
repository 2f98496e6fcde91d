package ident

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegionCompareBasics(t *testing.T) {
	root := Path{}
	anyID := MustParsePath("[10(0:s3)]")
	if RegionCompare(anyID, root) != 0 {
		t.Error("everything lies inside the root region")
	}
	region := MustParsePath("[10(0:s3)]").StripLastDis() // node [100]
	tests := []struct {
		id   string
		want int
	}{
		{"[10(0:s3)]", 0},       // the node's own mini
		{"[100(1:s4)]", 0},      // a descendant through the major slot
		{"[10(0:s3)(1:s8)]", 0}, // a descendant through a mini
		{"[(0:s1)]", -1},        // left sibling branch: before
		{"[10(1:s1)]", +1},      // right-bit mini of the same parent: after
		{"[(1:s1)]", +1},        // the parent branch's own mini: after the left subtree
		{"[1000(0:s2)]", 0},     // deeper descendant
		{"[101(0:s2)]", +1},     // parent's major-right subtree: after
	}
	for _, tt := range tests {
		id := MustParsePath(tt.id)
		if got := RegionCompare(id, region); got != tt.want {
			t.Errorf("RegionCompare(%s, %v) = %d, want %d", tt.id, region, got, tt.want)
		}
	}
}

// TestRegionCompareIntervalProperty: a subtree region is an interval in the
// total order. For random region paths and random identifiers, every
// identifier classified "before" must sort before every identifier inside,
// and those before every identifier "after".
func TestRegionCompareIntervalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		region := randomPath(rng, 5).StripLastDis()
		var before, inside, after []Path
		for i := 0; i < 12; i++ {
			id := randomPath(rng, 8)
			switch RegionCompare(id, region) {
			case -1:
				before = append(before, id)
			case 0:
				inside = append(inside, id)
			case +1:
				after = append(after, id)
			}
		}
		for _, b := range before {
			for _, in := range inside {
				if Compare(b, in) >= 0 {
					t.Fatalf("region %v: before-id %v >= inside-id %v", region, b, in)
				}
			}
			for _, a := range after {
				if Compare(b, a) >= 0 {
					t.Fatalf("region %v: before-id %v >= after-id %v", region, b, a)
				}
			}
		}
		for _, in := range inside {
			for _, a := range after {
				if Compare(in, a) >= 0 {
					t.Fatalf("region %v: inside-id %v >= after-id %v", region, in, a)
				}
			}
		}
	}
}

// TestRegionCompareDescendants: any extension of a path through the
// region's node classifies as inside.
func TestRegionCompareDescendants(t *testing.T) {
	f := func(a, b quickPath) bool {
		region := a.P.StripLastDis()
		// Build a descendant: enter the node (mini or major) and continue.
		desc := append(region.Clone(), b.P...)
		return RegionCompare(desc, region) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestRegionCompareMiniEntry: entering the region's node via a mini (same
// bit, any disambiguator) is inside.
func TestRegionCompareMiniEntry(t *testing.T) {
	region := MustParsePath("[01(1:s1)]").StripLastDis() // node [011]
	for _, s := range []string{"[01(1:⊥)]", "[01(1:s9)]", "[01(1:c3s2)]"} {
		if got := RegionCompare(MustParsePath(s), region); got != 0 {
			t.Errorf("RegionCompare(%s) = %d, want 0", s, got)
		}
	}
}

// FuzzCompareFrom states what the skip argument is allowed to mean: for any
// two paths and every skip up to their common prefix, starting the scan at
// skip changes nothing — CompareFrom agrees with Compare, both ways round,
// against q as it is and as a structural path. The two paths are built as a shared stem plus
// two tails so that long common prefixes are the usual case, and once more
// with one a slice of the other, the shared-backing case Compare shortcuts.
func FuzzCompareFrom(f *testing.F) {
	f.Add([]byte{0, 1, 4, 1}, []byte{5}, []byte{6, 9})
	f.Add([]byte{1, 1, 0, 6, 3}, []byte{}, []byte{0, 4})
	f.Add([]byte{}, []byte{4}, []byte{5})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{1, 0x86, 7}, []byte{1, 0x86, 8})
	f.Fuzz(func(t *testing.T, stem, a, b []byte) {
		p := append(pathFromBytes(stem), pathFromBytes(a)...)
		q := append(pathFromBytes(stem), pathFromBytes(b)...)
		check := func(p, q Path) {
			common := 0
			for common < len(p) && common < len(q) && p[common] == q[common] {
				common++
			}
			for skip := 0; skip <= common; skip++ {
				if got, want := CompareFrom(p, q, skip), Compare(p, q); got != want {
					t.Fatalf("CompareFrom(%v, %v, %d) = %d, Compare = %d", p, q, skip, got, want)
				}
			}
		}
		check(p, q)
		check(q, p)
		if len(q) > 0 {
			check(p, q.StripLastDis())
		}
		if len(p) > 0 {
			check(q, p.StripLastDis())
			check(p, p[:len(p)/2])
			check(p[:len(p)/2], p)
		}
	})
}
