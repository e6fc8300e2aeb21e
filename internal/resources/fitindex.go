package resources

// FitIndex answers first-fit queries over an ordered roster of slots
// (workers, nodes, hypothetical bins) keyed by each slot's free
// capacity. It is a segment tree whose internal nodes hold the
// component-wise Max of their children, so FindFirst descends
// leftmost-fit in ~O(log n) instead of scanning the roster, and the
// roster-wide maximum free capacity is the root in O(1).
//
// Leaves past the roster (padding up to a power of four) and slots a
// caller retires hold Zero. Only an all-zero request fits Zero, and it
// fits the lowest slot first, so a request with a positive component
// never selects them.
//
// The component-wise max of a subtree is necessary but not sufficient
// for a fit (the max CPU and max memory may come from different
// slots), so the descent may probe a subtree that turns out empty and
// continue right; with the near-homogeneous pools HTC deployments run,
// that path is cold.
//
// The tree is 4-ary: over a 100k-slot roster a leaf-to-root walk is 9
// levels instead of 17, and levels — each a likely cache miss on a
// multi-megabyte node array — dominate the cost of both Set and the
// descent. The wider node costs two extra Max/Fits per level, which
// are register-resident arithmetic.
//
// The zero FitIndex is empty and ready to use. Reset, Ensure and
// CloneFrom reuse the node array's capacity, so an index rebuilt every
// control-loop tick allocates only when the roster outgrows it.
type FitIndex struct {
	n    int      // leaf count, power of four (0 = empty)
	base int      // index of the first leaf: (n-1)/3
	node []Vector // 0-based; children of i at 4i+1..4i+4
}

// Reset rebuilds the index for the given leaf values, one per slot.
func (ix *FitIndex) Reset(leaves []Vector) {
	ix.resize(len(leaves), 0)
	copy(ix.node[ix.base:], leaves)
	ix.rebuild()
}

// Ensure grows the index to hold at least slots leaves, preserving
// existing values; new slots hold Zero.
func (ix *FitIndex) Ensure(slots int) {
	if slots <= ix.n {
		return
	}
	ix.resize(slots, ix.n)
	ix.rebuild()
}

// CloneFrom makes ix an independent copy of src.
func (ix *FitIndex) CloneFrom(src *FitIndex) {
	ix.n, ix.base = src.n, src.base
	ix.node = append(ix.node[:0], src.node...)
}

// resize lays the tree out for at least slots leaves (none when slots
// is 0). The first keep leaves move to their new positions and every
// other leaf becomes Zero; internal nodes are left for rebuild.
func (ix *FitIndex) resize(slots, keep int) {
	n := 0
	if slots > 0 {
		n = 1
		for n < slots {
			n *= 4
		}
	}
	old, oldBase := ix.node, ix.base
	ix.n, ix.base = n, (n-1)/3
	size := ix.base + n
	if cap(old) >= size {
		ix.node = old[:size]
	} else {
		ix.node = make([]Vector, size)
	}
	// The leaves only move toward the end, and copy is a memmove, so
	// sharing the old array is safe.
	copy(ix.node[ix.base:ix.base+keep], old[oldBase:oldBase+keep])
	clear(ix.node[ix.base+keep:])
}

func (ix *FitIndex) rebuild() {
	for i := ix.base - 1; i >= 0; i-- {
		c := 4*i + 1
		ix.node[i] = ix.node[c].Max(ix.node[c+1]).Max(ix.node[c+2].Max(ix.node[c+3]))
	}
}

// Set updates the leaf for a slot and re-aggregates its ancestors.
func (ix *FitIndex) Set(slot int, v Vector) {
	i := ix.base + slot
	if ix.node[i] == v {
		return
	}
	ix.node[i] = v
	for i > 0 {
		i = (i - 1) / 4
		c := 4*i + 1
		agg := ix.node[c].Max(ix.node[c+1]).Max(ix.node[c+2].Max(ix.node[c+3]))
		if agg == ix.node[i] {
			break
		}
		ix.node[i] = agg
	}
}

// Leaf returns the value stored for a slot.
func (ix *FitIndex) Leaf(slot int) Vector { return ix.node[ix.base+slot] }

// Max returns the component-wise maximum over all slots — the root
// aggregate.
func (ix *FitIndex) Max() Vector {
	if ix.n == 0 {
		return Zero
	}
	return ix.node[0]
}

// FindFirst returns the lowest slot whose value fits res, or -1. When
// slots are assigned in roster order, lowest slot = first fit in
// roster order, matching a linear scan exactly.
func (ix *FitIndex) FindFirst(res Vector) int {
	if ix.n == 0 || !res.Fits(ix.node[0]) {
		return -1
	}
	return ix.search(0, res)
}

func (ix *FitIndex) search(i int, res Vector) int {
	if i >= ix.base {
		return i - ix.base
	}
	c := 4*i + 1
	for k := 0; k < 4; k++ {
		if res.Fits(ix.node[c+k]) {
			if s := ix.search(c+k, res); s >= 0 {
				return s
			}
		}
	}
	return -1
}
