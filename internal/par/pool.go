package par

import "sync"

// Scratch pool: the sparse hot paths (Hopcroft–Karp phases, the Theorem
// 3.4 verifier) need O(n) int32 scratch per solve, and under defenderd
// traffic a fresh make per solve churns the GC. The pool hands back
// previously used slices re-sliced to the requested length; contents are
// UNSPECIFIED — callers own (re)initialization, which they need for
// determinism anyway. An undersized pool entry is
// dropped for the GC and replaced by a fresh make, so a mixed-size
// workload degenerates to allocation, never to corruption.

var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

// GetInt32 returns a []int32 of length n with arbitrary contents.
func GetInt32(n int) []int32 {
	p := int32Pool.Get().(*[]int32)
	s := *p
	*p = nil
	int32Pool.Put(p)
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

// PutInt32 returns s to the pool. The caller must not retain s.
func PutInt32(s []int32) {
	if cap(s) == 0 {
		return
	}
	p := int32Pool.Get().(*[]int32)
	if cap(*p) < cap(s) {
		*p = s[:0]
	}
	int32Pool.Put(p)
}
