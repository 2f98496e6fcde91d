package vclock

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/treedoc/treedoc/internal/ident"
)

func TestTickGetClone(t *testing.T) {
	v := New()
	if v.Get(1) != 0 {
		t.Error("fresh clock not zero")
	}
	if v.Tick(1) != 1 || v.Tick(1) != 2 || v.Tick(2) != 1 {
		t.Error("tick sequence wrong")
	}
	c := v.Clone()
	c.Tick(1)
	if v.Get(1) != 2 {
		t.Error("clone aliases original")
	}
}

func TestMergeDominates(t *testing.T) {
	a := VC{1: 3, 2: 1}
	b := VC{1: 1, 2: 4, 3: 2}
	a.Merge(b)
	want := VC{1: 3, 2: 4, 3: 2}
	for s, n := range want {
		if a[s] != n {
			t.Errorf("merged[%d] = %d, want %d", s, a[s], n)
		}
	}
	if !a.Dominates(b) {
		t.Error("merged clock must dominate both inputs")
	}
	if b.Dominates(a) {
		t.Error("b must not dominate merged")
	}
	if !(VC{}).Dominates(VC{}) || !a.Dominates(nil) {
		t.Error("empty-clock domination broken")
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want Relation
	}{
		{"equal empty", VC{}, VC{}, Equal},
		{"equal", VC{1: 2}, VC{1: 2}, Equal},
		{"before", VC{1: 1}, VC{1: 2}, Before},
		{"after", VC{1: 2, 2: 1}, VC{1: 2}, After},
		{"concurrent", VC{1: 1}, VC{2: 1}, Concurrent},
	}
	for _, tt := range tests {
		if got := tt.a.Compare(tt.b); got != tt.want {
			t.Errorf("%s: Compare = %v, want %v", tt.name, got, tt.want)
		}
	}
	if Concurrent.String() != "concurrent" || Equal.String() != "equal" ||
		Before.String() != "before" || After.String() != "after" {
		t.Error("relation names wrong")
	}
}

func TestString(t *testing.T) {
	v := VC{ident.SiteID(2): 1, ident.SiteID(1): 3}
	if got := v.String(); got != "{s1:3 s2:1}" {
		t.Errorf("String = %q", got)
	}
}

func TestMergeIdempotentCommutative(t *testing.T) {
	f := func(a, b map[uint8]uint8) bool {
		va, vb := New(), New()
		for s, n := range a {
			va[ident.SiteID(s)+1] = uint64(n)
		}
		for s, n := range b {
			vb[ident.SiteID(s)+1] = uint64(n)
		}
		m1 := va.Clone()
		m1.Merge(vb)
		m2 := vb.Clone()
		m2.Merge(va)
		m3 := m1.Clone()
		m3.Merge(vb) // idempotent
		return m1.Compare(m2) == Equal && m1.Compare(m3) == Equal &&
			m1.Dominates(va) && m1.Dominates(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTick: IsTick recognises exactly the clocks Ticked builds — one site's
// entry one higher, every other entry (and the set of entries) unchanged.
func TestTick(t *testing.T) {
	for _, tc := range []struct {
		prev, next VC
		site       ident.SiteID
		want       bool
	}{
		{VC{7: 1}, VC{7: 2}, 7, true},
		{VC{3: 9, 7: 1}, VC{3: 9, 7: 2}, 7, true},
		{VC{3: 9, 7: 1}, VC{3: 9, 7: 2}, 3, false}, // the other site's entry moved
		{VC{7: 1}, VC{7: 3}, 7, false},             // two ahead
		{VC{7: 1}, VC{7: 1}, 7, false},             // not ahead
		{VC{7: 1}, VC{7: 2, 9: 1}, 7, false},       // learnt a foreign entry
		{VC{7: 1, 9: 1}, VC{7: 2}, 7, false},       // lost one
		{VC{3: 9, 7: 1}, VC{3: 8, 7: 2}, 7, false}, // a foreign entry differs
		{VC{3: 0, 7: 1}, VC{9: 5, 7: 2}, 7, false}, // same size, different sites
		{VC{3: 9}, VC{3: 9, 7: 1}, 7, false},       // first message of a site: an entry appears
		{VC{7: ^uint64(0)}, VC{7: 0}, 7, true},     // wraps to a zero stamp, which the wire refuses on its own
	} {
		if got := tc.next.IsTick(tc.prev, tc.site); got != tc.want {
			t.Errorf("%v.IsTick(%v, s%d) = %v, want %v", tc.next, tc.prev, tc.site, got, tc.want)
		}
		if built := tc.prev.Ticked(tc.site); tc.want && !reflect.DeepEqual(built, tc.next) {
			t.Errorf("%v.Ticked(s%d) = %v, want %v", tc.prev, tc.site, built, tc.next)
		}
	}
	prev := VC{3: 9, 7: 1}
	if next := prev.Ticked(7); prev[7] != 1 || !next.IsTick(prev, 7) {
		t.Errorf("Ticked changed its receiver or missed: %v -> %v", prev, next)
	}
}
