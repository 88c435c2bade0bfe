package graph

// CSR-native random generators: the million-vertex instances the sparse
// core targets cannot be built through Graph's per-edge map insertions and
// sorted-slice inserts (a preferential-attachment hub of degree d pays
// O(d) per insert there, O(d²) total). This builder emits flat endpoint
// slices and bulk-load them with BuildCSR instead: O(n + m log Δ) and two
// allocations, independent of the degree distribution.

// BarabasiAlbertBipartiteCSR grows a scale-free *bipartite* graph by
// preferential attachment: vertices alternate sides (even indices left,
// odd right), the seed is the single edge {0, 1}, and every new vertex
// draws min(attach, opposite-side size) distinct neighbors from the
// opposite side with probability proportional to current degree (1-in-10
// uniform mixing). The result is connected, has no isolated vertices, and
// is bipartite by construction — the family the sparse k-matching pipeline
// scales on, because bipartiteness guarantees the Corollary 4.11 partition
// via the König route (see SCALING.md "Routing"). Deterministic for a
// fixed Generator stream; n is raised to 2 and attach to 1 when needed.
// O(n + m); allocates the endpoint and sampling slices plus the CSR.
func (gen *Generator) BarabasiAlbertBipartiteCSR(n, attach int) *CSR {
	if attach < 1 {
		attach = 1
	}
	if n < 2 {
		n = 2
	}
	us := make([]int32, 0, n*attach)
	vs := make([]int32, 0, n*attach)
	// One degree-proportional endpoint pool per side.
	repeated := [2][]int32{{0}, {1}}
	us, vs = append(us, 0), append(vs, 1)
	chosen := make([]int32, 0, attach)
	for v := 2; v < n; v++ {
		side := v % 2
		opp := 1 - side
		oppCount := (v + 1 - opp) / 2 // vertices of parity opp below v
		want := attach
		if oppCount < want {
			want = oppCount
		}
		chosen = chosen[:0]
		for len(chosen) < want {
			var candidate int32
			if gen.rng.Intn(10) == 0 {
				candidate = int32(2*gen.rng.Intn(oppCount) + opp)
			} else {
				candidate = repeated[opp][gen.rng.Intn(len(repeated[opp]))]
			}
			if containsInt32(chosen, candidate) {
				continue
			}
			chosen = append(chosen, candidate)
		}
		insertionSortInt32(chosen)
		for _, u := range chosen {
			us = append(us, int32(v))
			vs = append(vs, u)
			repeated[opp] = append(repeated[opp], u)
			repeated[side] = append(repeated[side], int32(v))
		}
	}
	c, err := BuildCSR(n, us, vs)
	if err != nil {
		// lint:invariant(nakedpanic): the sampler emits distinct cross-side in-range pairs by construction; a failure is a bug here
		panic("graph: BarabasiAlbertBipartiteCSR: " + err.Error())
	}
	return c
}

// containsInt32 reports whether x occurs in the (tiny) slice s — the
// distinctness check of the attachment samplers, O(attach) beats a map
// allocation at these sizes.
func containsInt32(s []int32, x int32) bool {
	for _, y := range s {
		if y == x {
			return true
		}
	}
	return false
}

// insertionSortInt32 sorts the (tiny) slice ascending in place without
// allocating; the samplers hold at most `attach` entries.
func insertionSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1] > s[j]; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
