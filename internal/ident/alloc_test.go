package ident

import "testing"

// TestAppendBinaryAllocs guards the zero-allocation contract of the
// append-style path encoder: with a presized destination, serialising an
// identifier must not touch the heap. The wire and storage encoders lean on
// this in their per-op hot loops; a regression here multiplies into one
// allocation per operation across every frame and snapshot.
func TestAppendBinaryAllocs(t *testing.T) {
	p := Path{J(0), J(1), M(0, Dis{Counter: 7, Site: 42}), M(1, Dis{Counter: 9, Site: 99})}
	for len(p) < 40 { // more minis than any fixed scratch list would hold
		p = append(p, M(1, Dis{Counter: 9, Site: 99}))
	}
	dst := make([]byte, 0, 256)
	got := testing.AllocsPerRun(200, func() {
		dst = p.AppendBinary(dst[:0])
	})
	if got != 0 {
		t.Errorf("Path.AppendBinary into presized dst: %.1f allocs/op, want 0", got)
	}
}
