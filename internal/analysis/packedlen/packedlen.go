// Package packedlen checks that nothing outside internal/ident takes the
// builtin len of an ident.Packed. A Packed is a string holding an
// identifier's wire bytes, so len compiles and counts bytes; the number of
// path elements is Packed.Len. A caller that does want the byte count says
// so with len(string(x)).
package packedlen

import (
	"go/ast"
	"go/types"

	"github.com/treedoc/treedoc/internal/analysis"
)

const identPath = "github.com/treedoc/treedoc/internal/ident"

// Analyzer is the packedlen check.
var Analyzer = &analysis.Analyzer{
	Name: "packedlen",
	Doc:  "check that len is not applied to an ident.Packed outside internal/ident",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == identPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "len" {
				return true
			}
			if isPacked(pass.TypesInfo.TypeOf(call.Args[0])) {
				pass.Reportf(call.Pos(), "len of an ident.Packed counts its bytes: use its Len method for the path's elements, or len(string(x)) for the bytes")
			}
			return true
		})
	}
	return nil
}

// isPacked reports whether t is ident.Packed.
func isPacked(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == identPath && obj.Name() == "Packed"
}
