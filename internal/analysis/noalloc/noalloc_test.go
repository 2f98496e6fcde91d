package noalloc_test

import (
	"testing"

	"github.com/treedoc/treedoc/internal/analysis/analysistest"
	"github.com/treedoc/treedoc/internal/analysis/noalloc"
)

// TestPerRune re-creates the per-rune heap-string regression: a
// string(r) conversion inside a //treedoc:noalloc function must be
// reported, the //treedoc:escape waiver must silence its line, and an
// allocation-free function must stay clean.
func TestPerRune(t *testing.T) {
	diags := analysistest.Run(t, noalloc.Analyzer, "testdata/perrune")
	if len(diags) == 0 {
		t.Fatal("per-rune string conversion was not caught; the compiler escape pass is not wired")
	}
}

// TestPooledEncoder proves the annotation is load-bearing for the wire
// encoders: the pooled append-style shape passes, and un-pooling —
// allocating a fresh result buffer per call — fails vet.
func TestPooledEncoder(t *testing.T) {
	diags := analysistest.Run(t, noalloc.Analyzer, "testdata/pooled")
	if len(diags) == 0 {
		t.Fatal("un-pooled encoder was not caught; the compiler escape pass is not wired")
	}
}

// TestStaleWaiver: a //treedoc:escape in an annotated function whose line
// has no heap escape is reported, and a waiver that holds an escape is
// not.
func TestStaleWaiver(t *testing.T) {
	analysistest.Run(t, noalloc.Analyzer, "testdata/stale")
}
