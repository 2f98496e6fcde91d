package packedlen_test

import (
	"testing"

	"github.com/treedoc/treedoc/internal/analysis/analysistest"
	"github.com/treedoc/treedoc/internal/analysis/packedlen"
)

// TestPackedLen: len of a Packed is reported wherever the argument's type
// is Packed — a variable, a field, a call result — and the fixture that
// asks for elements with Len, or for bytes through a string conversion,
// stays clean.
func TestPackedLen(t *testing.T) {
	if diags := analysistest.Run(t, packedlen.Analyzer, "testdata/src/bad"); len(diags) == 0 {
		t.Fatal("the failing fixture produced no diagnostics; the check is not running")
	}
	analysistest.Run(t, packedlen.Analyzer, "testdata/src/good")
}
