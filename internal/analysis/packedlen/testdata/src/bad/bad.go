// Package bad takes the builtin len of ident.Packed values.
package bad

import "github.com/treedoc/treedoc/internal/ident"

type op struct{ ID ident.Packed }

// Depth means the element count and gets the byte count.
func Depth(k ident.Packed) int {
	return len(k) // want `len of an ident.Packed counts its bytes`
}

// FieldDepth does the same through a struct field.
func FieldDepth(o op) int {
	return len((o.ID)) // want `len of an ident.Packed counts its bytes`
}

// Built takes len of a freshly packed path.
func Built(p ident.Path) bool {
	return len(ident.Pack(p)) > 3 // want `len of an ident.Packed counts its bytes`
}
