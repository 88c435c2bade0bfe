package graph

import "sort"

// Vertex sets are represented as sorted, duplicate-free []int slices
// throughout the library. The helpers below normalize and combine them.

// NormalizeSet returns a sorted, duplicate-free copy of vs.
// O(|vs| log |vs|); allocates the copy.
func NormalizeSet(vs []int) []int {
	if len(vs) == 0 {
		return nil
	}
	out := make([]int, len(vs))
	copy(out, vs)
	sort.Ints(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return out[:j+1]
}

// SetContains reports whether sorted set vs contains v.
// O(log |vs|) binary search, does not allocate.
func SetContains(vs []int, v int) bool {
	i := sort.SearchInts(vs, v)
	return i < len(vs) && vs[i] == v
}

// SetComplement returns the sorted complement of sorted set vs within 0..n-1.
// O(n); allocates the result.
func SetComplement(vs []int, n int) []int {
	member := make([]bool, n)
	for _, v := range vs {
		if v >= 0 && v < n {
			member[v] = true
		}
	}
	out := make([]int, 0, n-len(vs))
	for v := 0; v < n; v++ {
		if !member[v] {
			out = append(out, v)
		}
	}
	return out
}

// SetsEqual reports whether two sorted sets hold the same elements.
// O(|a|), does not allocate.
func SetsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// IsPartition reports whether sorted sets a and b partition 0..n-1.
// O(n), does not allocate.
func IsPartition(a, b []int, n int) bool {
	if len(a)+len(b) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range a {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	for _, v := range b {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
