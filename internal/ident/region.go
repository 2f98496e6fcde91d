package ident

// RegionCompare compares identifier a against the identifier region of the
// tree node designated by structural path r (a path whose final element is
// Major, or the empty path for the root). The region of a node is the
// contiguous identifier interval of its entire subtree: every identifier
// whose walk passes through the node.
//
// It returns -1 if a sorts before the whole region, 0 if a lies inside it,
// and +1 if a sorts after the whole region. Identifier allocation
// (Algorithm 1) uses this to establish that a candidate child region lies
// strictly between the insert neighbours.
func RegionCompare(a, r Path) int {
	k := len(r)
	if k == 0 {
		return 0 // the root's region is the whole identifier space
	}
	// a lies inside the region iff it walks through the region's node: its
	// first k-1 elements match r exactly and its k-th element steps the same
	// direction (entering the node through its major slot or any mini).
	skip := 0
	if len(a) >= k {
		for skip < k-1 && a[skip] == r[skip] {
			skip++
		}
		if skip == k-1 && a[k-1].Bit == r[k-1].Bit {
			return 0
		}
	}
	// Outside: the divergence point decides the side, which is exactly the
	// lexicographic element order (subtree regions are intervals).
	return CompareFrom(a, r, skip)
}
