package resources

import "testing"

// TestFitIndexFindFirst exercises the segment tree directly:
// leftmost-fit across growth, updates, and multi-dimension misses.
func TestFitIndexFindFirst(t *testing.T) {
	var ix FitIndex
	vec := func(c float64, m int64) Vector { return New(c, m, 0) }
	ix.Ensure(1)
	ix.Set(0, vec(4, 1000))
	for i := 1; i < 9; i++ {
		ix.Ensure(i + 1)
		ix.Set(i, vec(float64(i%4), 1000))
	}
	if got := ix.FindFirst(vec(3, 500)); got != 0 {
		t.Fatalf("FindFirst(3c) = %d, want 0", got)
	}
	ix.Set(0, Zero)
	if got := ix.FindFirst(vec(3, 500)); got != 3 {
		t.Fatalf("FindFirst(3c) after drain = %d, want 3", got)
	}
	// Multi-dimension miss: max CPU and max memory on different slots.
	ix.Reset([]Vector{vec(8, 100), vec(1, 9000)})
	if got := ix.FindFirst(vec(8, 8000)); got != -1 {
		t.Fatalf("FindFirst(8c/8G) = %d, want -1 (no single slot fits)", got)
	}
	if got := ix.Max(); got != vec(8, 9000) {
		t.Fatalf("Max = %v, want componentwise max", got)
	}
	if got := ix.FindFirst(vec(1, 8000)); got != 1 {
		t.Fatalf("FindFirst(1c/8G) = %d, want 1", got)
	}
}

// TestFitIndexReuse checks the capacity-reusing paths against fresh
// linear scans: a Reset that shrinks must not leak old leaves, Ensure
// must carry leaves across growth in place, and a clone must be
// independent of its source.
func TestFitIndexReuse(t *testing.T) {
	var ix FitIndex
	leaves := make([]Vector, 70)
	for i := range leaves {
		leaves[i] = New(float64(i%5), 1000, 0)
	}
	ix.Reset(leaves)
	ix.Reset(leaves[:3]) // reuses the 70-leaf array
	if got := ix.FindFirst(New(4, 0, 0)); got != -1 {
		t.Fatalf("FindFirst after shrinking Reset = %d, want -1 (stale leaf)", got)
	}
	ix.Reset(nil)
	if got := ix.FindFirst(Zero); got != -1 || ix.Max() != Zero {
		t.Fatalf("empty index: FindFirst = %d, Max = %v", got, ix.Max())
	}
	for i := range leaves {
		ix.Ensure(i + 1)
		ix.Set(i, leaves[i])
	}
	for i, want := range leaves {
		if got := ix.Leaf(i); got != want {
			t.Fatalf("Leaf(%d) = %v after growth, want %v", i, got, want)
		}
	}
	var clone FitIndex
	clone.CloneFrom(&ix)
	clone.Set(4, Zero)
	if got := ix.FindFirst(New(4, 0, 0)); got != 4 {
		t.Fatalf("source FindFirst(4c) = %d after clone write, want 4", got)
	}
	if got := clone.FindFirst(New(4, 0, 0)); got != 9 {
		t.Fatalf("clone FindFirst(4c) = %d, want 9", got)
	}
	if got := clone.FindFirst(Zero); got != 0 {
		t.Fatalf("FindFirst(Zero) = %d, want 0 (lowest slot)", got)
	}
}
