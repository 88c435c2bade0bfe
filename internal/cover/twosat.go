package cover

// satisfy2SAT solves the 2-SAT instance given by its implication graph
// imp over 2n literals: literal 2v asserts variable v, 2v+1 negates it,
// and imp[a] lists the literals a implies (a clause a ∨ b contributes
// ¬a → b and ¬b → a). It returns a satisfying assignment, or ok = false
// when some variable shares a strongly connected component with its
// negation (Aspvall–Plass–Tarjan 1979). The components come from an
// iterative Tarjan search, so long implication chains cannot exhaust the
// goroutine stack. O(n + |imp|); allocates four 2n-length arrays and the
// search stacks.
func satisfy2SAT(imp [][]int) (assign []bool, ok bool) {
	index := make([]int, len(imp)) // 1-based DFS number, 0 = unvisited
	low := make([]int, len(imp))
	comp := make([]int, len(imp)) // -1 while on the Tarjan stack
	next := make([]int, len(imp)) // edge cursor of the iterative DFS
	var stack, call []int
	counter, comps := 0, 0
	for root := range imp {
		if index[root] != 0 {
			continue
		}
		call = append(call, root)
		for len(call) > 0 {
			l := call[len(call)-1]
			if index[l] == 0 {
				counter++
				index[l], low[l], comp[l] = counter, counter, -1
				stack = append(stack, l)
			}
			if next[l] < len(imp[l]) {
				w := imp[l][next[l]]
				next[l]++
				if index[w] == 0 {
					call = append(call, w)
				} else if comp[w] < 0 {
					low[l] = min(low[l], index[w])
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1]
				low[parent] = min(low[parent], low[l])
			}
			if low[l] == index[l] {
				for w := -1; w != l; {
					w = stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = comps
				}
				comps++
			}
		}
	}
	// Tarjan numbers components in reverse topological order, so no path
	// leads from the literal with the smaller number to its negation: set
	// that literal true.
	assign = make([]bool, len(imp)/2)
	for v := range assign {
		if comp[2*v] == comp[2*v+1] {
			return nil, false
		}
		assign[v] = comp[2*v] < comp[2*v+1]
	}
	return assign, true
}
