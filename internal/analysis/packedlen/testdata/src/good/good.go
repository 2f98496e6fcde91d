// Package good counts a Packed's elements with Len and its bytes through
// an explicit string conversion.
package good

import "github.com/treedoc/treedoc/internal/ident"

// Depth is the path's element count.
func Depth(k ident.Packed) int { return k.Len() }

// WireBytes is the byte count, asked for as such.
func WireBytes(k ident.Packed) int { return len(string(k)) }

// Elements takes len of a Path, which counts elements.
func Elements(p ident.Path) int { return len(p) }
