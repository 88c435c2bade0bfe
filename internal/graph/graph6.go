package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
)

// graph6 is McKay's compact ASCII format for simple undirected graphs,
// used by nauty/geng and most graph repositories. Support for it lets the
// experiments consume standard instance collections directly.
//
// Layout: N(n) followed by the upper-triangle adjacency bits x(0,1),
// x(0,2), x(1,2), x(0,3), ... packed big-endian into 6-bit groups, each
// encoded as byte value+63. N(n) is one byte n+63 for n <= 62, or '~'
// followed by three 6-bit bytes for n <= 258047 (the 8-byte form for even
// larger graphs is out of scope here).

// ErrBadGraph6 is returned for malformed graph6 input.
var ErrBadGraph6 = errors.New("graph: malformed graph6")

// ParseGraph6 decodes a single graph6 line (surrounding whitespace and an
// optional ">>graph6<<" header are tolerated). Parsing is strict: the
// vertex count must use its canonical header form, the byte count must
// match exactly, and padding bits in the final adjacency byte must be
// zero, so every accepted string satisfies FormatGraph6(ParseGraph6(s)) ==
// TrimGraph6(s) — the round-trip identity fuzzed by FuzzParseGraph6 and
// relied on by every graph6-keyed cache. Strictness matters beyond
// hygiene — graph6 strings key defenderd's response cache, and a
// lax parser would let one graph hide under several keys.
//
// Edges are inserted in the format's column-major bit order (j ascending,
// then i ascending for each edge {i, j}, i < j), which fixes edge IDs and
// therefore the order of every tuple built on the result. O(n²/6 + m):
// the adjacency bytes are walked once and all-zero 6-bit groups cost one
// comparison; allocates the graph with its adjacency lists and edge-index
// map sized up front.
func ParseGraph6(s string) (*Graph, error) {
	s = TrimGraph6(s)
	// Set bits past the header, counted while the bytes are range-checked
	// so the edge list and map can be sized before decoding. A '~' first
	// byte means the long header; graph6Order rejects every other reading.
	hdr, m := 1, 0
	if s != "" && s[0] == 126 {
		hdr = 4
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 63 || s[i] > 126 {
			return nil, fmt.Errorf("%w: byte %q out of range", ErrBadGraph6, s[i])
		}
		if i >= hdr {
			m += bits.OnesCount8(s[i] - 63)
		}
	}
	n, pos, err := graph6Order(s)
	if err != nil {
		return nil, err
	}
	bitsNeeded := n * (n - 1) / 2
	bytesNeeded := (bitsNeeded + 5) / 6
	if len(s)-pos != bytesNeeded {
		return nil, fmt.Errorf("%w: want %d adjacency bytes for n=%d, got %d",
			ErrBadGraph6, bytesNeeded, n, len(s)-pos)
	}
	// The last adjacency byte's bits beyond x(n-2,n-1) are padding and must
	// be zero — trailing garbage bits would otherwise parse as a valid graph
	// and defeat the Format∘Parse = identity round trip.
	if pad := bytesNeeded*6 - bitsNeeded; pad > 0 {
		if last := s[pos+bytesNeeded-1] - 63; last&(1<<uint(pad)-1) != 0 {
			return nil, fmt.Errorf("%w: nonzero padding bits in final adjacency byte", ErrBadGraph6)
		}
	}
	edges := make([]Edge, 0, m)
	deg := make([]int, n)
	// x(i, j) is the current group's first bit. The bit off places later
	// is x(i+off, j), carried into the next columns while i+off >= j.
	i, j := 0, 1
	for p := pos; p < len(s); p++ {
		for x := s[p] - 63; x != 0; {
			off := bits.LeadingZeros8(x) - 2
			x &^= 0x20 >> off
			u, v := i+off, j
			for u >= v {
				u, v = u-v, v+1
			}
			edges = append(edges, Edge{U: u, V: v})
			deg[u]++
			deg[v]++
		}
		for i += 6; i >= j; j++ {
			i -= j
		}
	}
	// In column-major order every vertex meets its smaller neighbours (in
	// its own column) before its larger ones (in later columns), each run
	// ascending, so appending in edge order leaves each list sorted. The
	// lists share one backing array, each capped at its degree so that a
	// later AddEdge reallocates instead of overwriting a neighbour's list.
	g := &Graph{n: n, adj: make([][]int, n), edges: edges, edgeIndex: make(map[Edge]int, m)}
	backing := make([]int, 2*m)
	for v, d := range deg {
		if d > 0 {
			g.adj[v], backing = backing[:0:d], backing[d:]
		}
	}
	for id, e := range edges {
		g.edgeIndex[e] = id
		g.adj[e.U] = append(g.adj[e.U], e.V)
		g.adj[e.V] = append(g.adj[e.V], e.U)
	}
	return g, nil
}

// Graph6Order returns the vertex count a graph6 line declares, decoding
// only its header under ParseGraph6's rules (whitespace, the optional
// ">>graph6<<" prefix, canonical header form). It neither checks nor
// copies the adjacency bytes, so a caller can refuse an oversized graph
// before paying ParseGraph6's O(n^2) decode. O(1) past the trimming; does
// not allocate.
func Graph6Order(s string) (int, error) {
	n, _, err := graph6Order(TrimGraph6(s))
	return n, err
}

// TrimGraph6 strips the surrounding whitespace and the optional
// ">>graph6<<" header that ParseGraph6 tolerates, returning the bytes it
// decodes. For every line ParseGraph6 accepts, the result is exactly
// FormatGraph6 of the parsed graph, so a cache keyed on canonical graph6
// may look a request up by its trimmed string before parsing it: a string
// that is not canonical never parsed, so it can never have been stored.
// O(len(s)); does not allocate.
func TrimGraph6(s string) string {
	return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), ">>graph6<<"))
}

// graph6Order decodes N(n) from a trimmed graph6 line, returning n and
// the offset of the first adjacency byte.
func graph6Order(s string) (n, pos int, err error) {
	if s == "" {
		return 0, 0, fmt.Errorf("%w: empty input", ErrBadGraph6)
	}
	for i := 0; i < len(s) && i < 4; i++ {
		if s[i] < 63 || s[i] > 126 {
			return 0, 0, fmt.Errorf("%w: byte %q out of range", ErrBadGraph6, s[i])
		}
	}
	switch {
	case s[0] == 126 && len(s) >= 4 && s[1] == 126:
		return 0, 0, fmt.Errorf("%w: 8-byte vertex counts not supported", ErrBadGraph6)
	case s[0] == 126:
		if len(s) < 4 {
			return 0, 0, fmt.Errorf("%w: truncated extended vertex count", ErrBadGraph6)
		}
		n = int(s[1]-63)<<12 | int(s[2]-63)<<6 | int(s[3]-63)
		// The long form is only canonical for 63 <= n <= 258047: smaller
		// counts must use the one-byte header, and larger ones the 8-byte
		// form we reject above. Accepting the non-canonical encodings would
		// break Format∘Parse = identity (the fuzzed round-trip contract)
		// and let one graph hide under several cache keys.
		// (n > 258047 is unreachable here: its second header byte would be
		// '~', which the 8-byte branch above already rejects.)
		if n <= 62 {
			return 0, 0, fmt.Errorf("%w: non-canonical long-form header for n=%d (short form required)", ErrBadGraph6, n)
		}
		return n, 4, nil
	default:
		return int(s[0] - 63), 1, nil
	}
}

// FormatGraph6 encodes g as a graph6 string. Graphs beyond 258047 vertices
// are rejected. The encoding is canonical — one byte sequence per graph —
// so FormatGraph6 inverts ParseGraph6 exactly: Format(Parse(s)) == s for
// every accepted s, and Parse(Format(g)) reproduces g's edge set. Each
// edge {u, v}, u < v, sets bit v(v-1)/2 + u of a zeroed adjacency field,
// so the cost is O(n²/6 + m) with no edge lookups; allocates the byte
// field and the output string.
func FormatGraph6(g *Graph) (string, error) {
	n := g.NumVertices()
	if n > 258047 {
		return "", fmt.Errorf("%w: n=%d too large to encode", ErrBadGraph6, n)
	}
	hdr := 1
	if n > 62 {
		hdr = 4
	}
	buf := make([]byte, hdr+(n*(n-1)/2+5)/6)
	if n <= 62 {
		buf[0] = byte(n + 63)
	} else {
		buf[0] = 126
		buf[1] = byte(n>>12&63 + 63)
		buf[2] = byte(n>>6&63 + 63)
		buf[3] = byte(n&63 + 63)
	}
	adj := buf[hdr:]
	for _, e := range g.edges {
		bit := e.V*(e.V-1)/2 + e.U
		adj[bit/6] |= 0x20 >> (bit % 6)
	}
	for i := range adj {
		adj[i] += 63
	}
	return string(buf), nil
}
