package graph

// Structural operations on graphs, used by the experiments to widen the
// instance families.

// DisjointUnion returns the graph consisting of g followed by h on a
// shifted vertex range, along with the offset of h's vertices.
// O(n + m) over both inputs; allocates the returned graph.
func DisjointUnion(g, h *Graph) (*Graph, int) {
	offset := g.n
	u := New(g.n + h.n)
	for _, e := range g.edges {
		u.mustAddEdge(e.U, e.V)
	}
	for _, e := range h.edges {
		u.mustAddEdge(e.U+offset, e.V+offset)
	}
	return u, offset
}

// Ladder returns the ladder graph L_n: two parallel paths of n vertices
// with rungs between them (the 2×n grid).
// O(n); allocates the returned graph.
func Ladder(n int) *Graph { return Grid(2, n) }

// Barbell returns two K_c cliques joined by a single bridge edge.
// O(c^2) insertions; allocates the returned graph.
func Barbell(c int) *Graph {
	g := New(2 * c)
	for u := 0; u < c; u++ {
		for v := u + 1; v < c; v++ {
			g.mustAddEdge(u, v)
			g.mustAddEdge(c+u, c+v)
		}
	}
	if c >= 1 {
		g.mustAddEdge(c-1, c)
	}
	return g
}

// Lollipop returns K_c with a path of p extra vertices hanging off
// vertex c−1.
// O(c^2 + p) insertions; allocates the returned graph.
func Lollipop(c, p int) *Graph {
	g := New(c + p)
	for u := 0; u < c; u++ {
		for v := u + 1; v < c; v++ {
			g.mustAddEdge(u, v)
		}
	}
	prev := c - 1
	for i := 0; i < p; i++ {
		g.mustAddEdge(prev, c+i)
		prev = c + i
	}
	return g
}

// CompleteBinaryTree returns the complete binary tree with the given
// number of levels (level 1 = a single root), n = 2^levels − 1 vertices.
// O(2^levels); allocates the returned graph.
func CompleteBinaryTree(levels int) *Graph {
	if levels < 1 {
		return New(0)
	}
	n := (1 << uint(levels)) - 1
	g := New(n)
	for v := 1; v < n; v++ {
		g.mustAddEdge(v, (v-1)/2)
	}
	return g
}

// Caterpillar returns a spine path of s vertices with legs pendant leaves
// attached to every spine vertex. Spine vertices are 0..s−1; the legs of
// spine vertex i are s+i·legs .. s+(i+1)·legs−1.
// O(s·legs); allocates the returned graph.
func Caterpillar(s, legs int) *Graph {
	g := New(s + s*legs)
	for v := 0; v+1 < s; v++ {
		g.mustAddEdge(v, v+1)
	}
	for i := 0; i < s; i++ {
		for j := 0; j < legs; j++ {
			g.mustAddEdge(i, s+i*legs+j)
		}
	}
	return g
}
