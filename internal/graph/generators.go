package graph

// Path returns the path graph P_n on n vertices (n-1 edges).
// O(n); allocates the returned graph.
func Path(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v++ {
		g.mustAddEdge(v, v+1)
	}
	return g
}

// Cycle returns the cycle graph C_n on n >= 3 vertices.
// For n < 3 it returns a path (cycles need at least three vertices).
// O(n); allocates the returned graph.
func Cycle(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.mustAddEdge(n-1, 0)
	}
	return g
}

// Complete returns the complete graph K_n.
// O(n^2) insertions; allocates the returned graph.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.mustAddEdge(u, v)
		}
	}
	return g
}

// Star returns the star K_{1,n-1}: vertex 0 is the center.
// O(n); allocates the returned graph.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.mustAddEdge(0, v)
	}
	return g
}

// Wheel returns the wheel W_n: a cycle on vertices 1..n-1 plus hub 0.
// It requires n >= 4 for the rim to be a proper cycle.
// O(n); allocates the returned graph.
func Wheel(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.mustAddEdge(0, v)
	}
	for v := 1; v+1 < n; v++ {
		g.mustAddEdge(v, v+1)
	}
	if n >= 4 {
		g.mustAddEdge(n-1, 1)
	}
	return g
}

// CompleteBipartite returns K_{a,b}: vertices 0..a-1 on the left side and
// a..a+b-1 on the right side.
// O(a·b) insertions; allocates the returned graph.
func CompleteBipartite(a, b int) *Graph {
	g := New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.mustAddEdge(u, v)
		}
	}
	return g
}

// Grid returns the r x c grid graph. Vertex (i, j) has index i*c + j.
// O(r·c); allocates the returned graph.
func Grid(r, c int) *Graph {
	g := New(r * c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.mustAddEdge(v, v+1)
			}
			if i+1 < r {
				g.mustAddEdge(v, v+c)
			}
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d vertices.
// O(d·2^d) insertions; allocates the returned graph.
func Hypercube(d int) *Graph {
	n := 1 << uint(d)
	g := New(n)
	for v := 0; v < n; v++ {
		for b := 0; b < d; b++ {
			u := v ^ (1 << uint(b))
			if v < u {
				g.mustAddEdge(v, u)
			}
		}
	}
	return g
}

// PerfectMatchingGraph returns n/2 disjoint edges (2i, 2i+1); n must be even
// (an odd trailing vertex is left isolated).
// O(n); allocates the returned graph.
func PerfectMatchingGraph(n int) *Graph {
	g := New(n)
	for v := 0; v+1 < n; v += 2 {
		g.mustAddEdge(v, v+1)
	}
	return g
}

// Petersen returns the Petersen graph (10 vertices, 15 edges, 3-regular).
// O(1)-sized; allocates the returned graph.
func Petersen() *Graph {
	g := New(10)
	for v := 0; v < 5; v++ {
		g.mustAddEdge(v, (v+1)%5)     // outer cycle
		g.mustAddEdge(v, v+5)         // spokes
		g.mustAddEdge(v+5, (v+2)%5+5) // inner pentagram
	}
	return g
}

// Heawood returns the Heawood graph: the bipartite 3-regular cage on 14
// vertices (the incidence graph of the Fano plane). It is simultaneously
// bipartite (k-matching equilibria exist) and perfectly matchable, making
// it the canonical instance where the two equilibrium families tie.
// O(1)-sized; allocates the returned graph.
func Heawood() *Graph {
	g := New(14)
	for v := 0; v < 14; v++ {
		g.mustAddEdge(v, (v+1)%14)
	}
	for _, e := range [][2]int{{0, 5}, {2, 7}, {4, 9}, {6, 11}, {8, 13}, {10, 1}, {12, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			g.mustAddEdge(e[0], e[1])
		}
	}
	return g
}

// RandomGNP returns an Erdős–Rényi graph G(n, p) drawn with the given seed.
// It is a convenience wrapper over Generator.GNP; callers drawing several
// graphs should hold one Generator instead.
// Cost of Generator.GNP plus a one-shot generator allocation.
func RandomGNP(n int, p float64, seed int64) *Graph {
	return NewSeededGenerator(seed).GNP(n, p)
}

// RandomBipartite returns a random bipartite graph without isolated
// vertices, drawn with the given seed; see Generator.Bipartite.
// Cost of Generator.Bipartite plus a one-shot generator allocation.
func RandomBipartite(a, b int, p float64, seed int64) *Graph {
	return NewSeededGenerator(seed).Bipartite(a, b, p)
}

// RandomTree returns a uniformly random labelled tree on n vertices, drawn
// with the given seed; see Generator.Tree.
// Cost of Generator.Tree plus a one-shot generator allocation.
func RandomTree(n int, seed int64) *Graph {
	return NewSeededGenerator(seed).Tree(n)
}

// RandomConnected returns a connected Erdős–Rényi-style graph drawn with
// the given seed; see Generator.Connected.
// Cost of Generator.Connected plus a one-shot generator allocation.
func RandomConnected(n int, p float64, seed int64) *Graph {
	return NewSeededGenerator(seed).Connected(n, p)
}
