package intern

import (
	"testing"
	"unsafe"
)

// TestInternTable states the package's two halves: a single ASCII rune or
// byte comes back as the shared table entry without allocating, and
// everything else falls through to an ordinary, equal string.
func TestInternTable(t *testing.T) {
	for _, tt := range []struct {
		name   string
		in     string
		rune   bool // also a single rune: try Rune
		shared bool // the result is the table's entry
	}{
		{"nul", "\x00", true, true},
		{"letter", "a", true, true},
		{"newline", "\n", true, true},
		{"last ascii", "\x7f", true, true},
		{"first non-ascii byte", "\x80", false, false},
		{"two-byte rune", "é", true, false},
		{"three-byte rune", "€", true, false},
		{"four-byte rune", "😀", true, false},
		{"two ascii bytes", "ab", false, false},
		{"empty", "", false, false},
	} {
		check := func(fn string, got string, allocs float64) {
			t.Helper()
			if got != tt.in {
				t.Errorf("%s: %s = %q, want %q", tt.name, fn, got, tt.in)
			}
			if shared := len(got) == 1 && got[0] < asciiMax && unsafe.StringData(got) == unsafe.StringData(ascii[got[0]]); shared != tt.shared {
				t.Errorf("%s: %s returns the shared entry: %v, want %v", tt.name, fn, shared, tt.shared)
			}
			if tt.shared && allocs != 0 {
				t.Errorf("%s: %s allocates %v times on the ASCII fast path", tt.name, fn, allocs)
			}
		}
		b := []byte(tt.in)
		var got string
		allocs := testing.AllocsPerRun(100, func() { got = Bytes(b) })
		check("Bytes", got, allocs)
		if tt.rune {
			r := []rune(tt.in)[0]
			allocs = testing.AllocsPerRun(100, func() { got = Rune(r) })
			check("Rune", got, allocs)
		}
	}
	if got := Rune(-1); got != string(rune(-1)) {
		t.Errorf("Rune(-1) = %q, want the replacement character", got)
	}
}
