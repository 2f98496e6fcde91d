// Package framekinds checks that the wire package's frame table is
// complete. The table (a package-level array literal named frameTable,
// indexed by kind byte) is what makes a frame kind exist: the decoder, the
// encoder, the size ceilings and the envelope rules all index it, and a
// frame's layout is one wire method run in both directions, so "encodable
// but not decodable" cannot be written. What the compiler cannot see is a
// kind constant that never made it into the table, or a call that pairs a
// kind with another kind's frame type. This analyzer checks exactly that:
//
//   - every package-level constant matching ^kind[A-Z] keys exactly one
//     row of frameTable, and every row is keyed by such a constant;
//   - every row's constructor (the function literal in the row) returns a
//     type with a wire method;
//   - every encodeFrame(kind, value) call passes the value type its
//     kind's row constructs.
//
// A package with no kind constants is not a wire package and is skipped.
package framekinds

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/treedoc/treedoc/internal/analysis"
)

// Analyzer is the framekinds check.
var Analyzer = &analysis.Analyzer{
	Name: "framekinds",
	Doc:  "check that every kind* wire constant keys one frameTable row whose constructor returns a type with a wire method",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	var kinds []*ast.Ident      // kind constants, in declaration order
	var table *ast.CompositeLit // frameTable's initializer
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || (gd.Tok != token.CONST && gd.Tok != token.VAR) {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if gd.Tok == token.CONST && isKindName(name.Name) {
						kinds = append(kinds, name)
					}
					if gd.Tok == token.VAR && name.Name == "frameTable" && i < len(vs.Values) {
						table, _ = vs.Values[i].(*ast.CompositeLit)
					}
				}
			}
		}
	}
	if len(kinds) == 0 {
		return nil
	}
	if table == nil {
		pass.Reportf(kinds[0].Pos(), "package declares kind constants but no frameTable array literal")
		return nil
	}

	// One pass over the rows: which constant keys each, what it constructs.
	rows := make(map[types.Object]int)
	built := make(map[types.Object]types.Type)
	for _, elt := range table.Elts {
		kv, _ := elt.(*ast.KeyValueExpr)
		var key *ast.Ident
		if kv != nil {
			key, _ = kv.Key.(*ast.Ident)
		}
		if key == nil || !isKindName(key.Name) {
			pass.Reportf(elt.Pos(), "frameTable row is not keyed by a kind constant")
			continue
		}
		obj := pass.TypesInfo.Uses[key]
		rows[obj]++
		t := constructed(pass, kv.Value)
		switch {
		case t == nil:
			pass.Reportf(kv.Pos(), "frameTable[%s] has no constructor", key.Name)
		case !hasWire(pass.Pkg, t):
			pass.Reportf(kv.Pos(), "frameTable[%s] constructs %s, which has no wire method", key.Name, types.TypeString(t, types.RelativeTo(pass.Pkg)))
		default:
			built[obj] = t
		}
	}
	for _, k := range kinds {
		if n := rows[pass.TypesInfo.Defs[k]]; n != 1 {
			pass.Reportf(k.Pos(), "%s keys %d rows of frameTable, want exactly 1", k.Name, n)
		}
	}

	// encodeFrame(kind, value): the value must be what the kind's row builds.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if fn, _ := call.Fun.(*ast.Ident); fn == nil || fn.Name != "encodeFrame" {
				return true
			}
			key, _ := call.Args[0].(*ast.Ident)
			if key == nil {
				return true // a forwarded kind parameter: the caller's call is the one checked
			}
			want, got := built[pass.TypesInfo.Uses[key]], pass.TypesInfo.TypeOf(call.Args[1])
			if want != nil && !types.IsInterface(got) && !types.Identical(want, got) {
				pass.Reportf(call.Pos(), "encodeFrame(%s, %s): frameTable[%s] constructs %s", key.Name,
					types.TypeString(got, types.RelativeTo(pass.Pkg)), key.Name, types.TypeString(want, types.RelativeTo(pass.Pkg)))
			}
			return true
		})
	}
	return nil
}

// constructed returns the type the row's constructor — the first function
// literal inside it — returns, or nil if the row has none.
func constructed(pass *analysis.Pass, row ast.Expr) (t types.Type) {
	ast.Inspect(row, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || t != nil {
			return t == nil
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 && t == nil {
				t = pass.TypesInfo.TypeOf(ret.Results[0])
			}
			return t == nil
		})
		return false
	})
	return t
}

func hasWire(pkg *types.Package, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg, "wire")
	_, isFunc := obj.(*types.Func)
	return isFunc
}

func isKindName(name string) bool {
	rest, ok := strings.CutPrefix(name, "kind")
	return ok && rest != "" && rest[0] >= 'A' && rest[0] <= 'Z'
}
