package doctree

import "github.com/treedoc/treedoc/internal/ident"

// FreeMiniBetweenOracle lets the external benchmarks run the root-down
// oracle (slots_oracle_test.go) beside the scan.
func (t *Tree) FreeMiniBetweenOracle(p, f ident.Path, d ident.Dis) (ident.Path, int) {
	return t.freeMiniBetweenOracle(p, f, d)
}
