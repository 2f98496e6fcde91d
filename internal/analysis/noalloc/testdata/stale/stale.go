// Package stale holds waivers in //treedoc:noalloc functions: one waives a
// real escape and stays silent, and one waives a line the compiler proves
// allocation-free — an append growing the caller's slice — which the
// analyzer reports, so a waiver cannot outlive its escape and hide the
// next one. (A trailing waiver maps to its line the same way; a want
// comment cannot share its line.)
package stale

// Grow appends to the caller's scratch: append's growth is no escape
// diagnostic, so the waiver waives nothing.
//
//treedoc:noalloc
func Grow(dst []byte, b byte) []byte {
	//treedoc:escape growing the caller's scratch
	return append(dst, b) // want `Grow is //treedoc:noalloc but its //treedoc:escape waives a line with no heap escape \(remove it\)`
}

// Copy returns a fresh exact-size copy: the waiver holds an escape.
//
//treedoc:noalloc
func Copy(src []byte) []byte {
	out := make([]byte, len(src)) //treedoc:escape the exact-size result is the contract here
	copy(out, src)
	return out
}
